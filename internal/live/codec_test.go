package live

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/eventchan"
	"repro/internal/sched"
)

// Payload is implemented by the eight live event payload types.
type Payload interface {
	AppendPayload(b []byte) []byte
}

var (
	_ Payload = TaskArrive{}
	_ Payload = Accept{}
	_ Payload = Trigger{}
	_ Payload = IdleReset{}
	_ Payload = Complete{}
	_ Payload = Heartbeat{}
	_ Payload = RepRecord{}
	_ Payload = Done{}
)

// payloadDecoder is the pointer side of a payload type.
type payloadDecoder[T any] interface {
	*T
	Payload
	DecodePayload(b []byte) error
}

// codecCase is one payload value with its pinned wire form.
type codecCase struct {
	name string
	in   Payload
	hex  string
}

var (
	twoStages = []sched.PlacedStage{{Stage: 0, Proc: 2, Util: 0.25}, {Stage: 1, Proc: 0, Util: math.Nextafter(0.1, 1)}}
	oneEntry  = []sched.EntryRef{{Ref: sched.JobRef{Task: "t", Job: 3}, Stage: 1, Proc: 2}}
)

// goldenCases pin one wire vector per payload type. A change to any hex
// string is a wire-format change: every node of a deployment must then be
// rebuilt together.
var goldenCases = []codecCase{
	{"TaskArrive", TaskArrive{Task: "cam", Job: 7, Proc: 1, ArrivalNanos: -3}, "0363616d0e0205"},
	{"Accept", Accept{Task: "cam", Job: 7, Ok: true, Placement: twoStages, Relocated: true, PerTaskDecision: false, ArrivalNanos: 1000, Epoch: 2},
		"0363616d0e01020004000000000000d03f02009b9999999999b93f0100d00f04"},
	{"Trigger", Trigger{Task: "cam", Job: 7, Stage: 1, Placement: twoStages, ArrivalNanos: 1000},
		"0363616d020e020004000000000000d03f02009b9999999999b93fd00f"},
	{"IdleReset", IdleReset{Proc: 2, Entries: oneEntry}, "04010174060204"},
	{"Complete", Complete{Ref: sched.JobRef{Task: "cam", Job: 7}, Stage: 1, Kind: sched.Aperiodic, DeadlineNanos: 1 << 40},
		"0363616d0e0204808080808040"},
	{"Heartbeat", Heartbeat{Node: "app1", Proc: 1, Seq: 9, SentNanos: 5}, "046170703102120a"},
	{"RepRecord", RepRecord{Epoch: 1, Seq: 2, Kind: RepAdmit, Ref: sched.JobRef{Task: "cam", Job: 7}, TaskKind: sched.Periodic,
		Placement: twoStages[:1], Permanent: true, ExpiryNanos: 0, Task: "", Entries: oneEntry},
		"02040561646d69740363616d0e02010004000000000000d03f010000010174060204"},
	{"Done", Done{Task: "cam", Job: 7, ArrivalNanos: 10, DoneNanos: 20}, "0363616d0e1428"},
}

// decodeAs decodes b into a fresh value of in's dynamic type.
func decodeAs(in Payload, b []byte) (Payload, error) {
	ptr := reflect.New(reflect.TypeOf(in))
	err := ptr.Interface().(interface{ DecodePayload([]byte) error }).DecodePayload(b)
	return ptr.Elem().Interface().(Payload), err
}

func TestEventCodecGoldenVectors(t *testing.T) {
	for _, c := range goldenCases {
		if got := hex.EncodeToString(c.in.AppendPayload(nil)); got != c.hex {
			t.Errorf("%s wire form = %s, want %s", c.name, got, c.hex)
		}
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	cases := []Payload{
		TaskArrive{},
		Accept{},
		Accept{Task: "r", Job: 1, Ok: false, Placement: nil, Epoch: 3},
		Accept{Task: "e", Placement: []sched.PlacedStage{}},
		Trigger{Placement: []sched.PlacedStage{}},
		Trigger{Task: "t", Job: math.MaxInt64, Stage: 1, Placement: []sched.PlacedStage{{Util: math.Inf(1)}, {Util: math.Copysign(0, -1)}}, ArrivalNanos: math.MinInt64},
		IdleReset{},
		IdleReset{Proc: 3, Entries: []sched.EntryRef{}},
		Complete{Kind: sched.Periodic},
		Heartbeat{Node: "ü\x00", Proc: -1},
		RepRecord{},
		RepRecord{Kind: RepWithdraw, Task: "gone", Placement: []sched.PlacedStage{}, Entries: []sched.EntryRef{}},
		Done{Task: "d", DoneNanos: math.MaxInt64},
	}
	for _, c := range goldenCases {
		cases = append(cases, c.in)
	}
	for _, in := range cases {
		wire := in.AppendPayload(nil)
		out, err := decodeAs(in, wire)
		if err != nil {
			t.Fatalf("%T %+v: %v", in, in, err)
		}
		// An empty slice travels as count zero and decodes as nil, as gob
		// did: a rejected Accept has a nil Placement.
		if want := nilEmptySlices(in); !reflect.DeepEqual(out, want) {
			t.Errorf("round trip %T:\n got %+v\nwant %+v", in, out, want)
		}
		if again := out.AppendPayload(nil); !bytes.Equal(again, wire) {
			t.Errorf("%T re-encodes to %x, first encoding %x", in, again, wire)
		}
		// Appending to a non-empty buffer leaves the prefix alone.
		if got := in.AppendPayload([]byte("xy")); string(got[:2]) != "xy" || !bytes.Equal(got[2:], wire) {
			t.Errorf("%T append to prefix = %x", in, got)
		}
	}
	// Util keeps its exact bits, NaN payload included.
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	var trg Trigger
	if err := trg.DecodePayload(Trigger{Placement: []sched.PlacedStage{{Util: nan}}}.AppendPayload(nil)); err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(trg.Placement[0].Util); bits != 0x7ff8_0000_0000_beef {
		t.Errorf("Util bits = %#x", bits)
	}
}

// nilEmptySlices returns v with its empty slice fields set to nil.
func nilEmptySlices(v Payload) Payload {
	rv := reflect.New(reflect.TypeOf(v)).Elem()
	rv.Set(reflect.ValueOf(v))
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return rv.Interface().(Payload)
}

func TestEventCodecRejectsMalformed(t *testing.T) {
	valid := Trigger{Task: "cam", Job: 7, Stage: 1, Placement: twoStages, ArrivalNanos: 1000}.AppendPayload(nil)
	cases := map[string][]byte{
		"empty":          {},
		"garbage":        []byte("garbage"),
		"truncated":      valid[:len(valid)-1],
		"trailing byte":  append(append([]byte{}, valid...), 0),
		"overlong len":   append([]byte{0x83, 0x00}, valid[1:]...),
		"string overrun": {0x7f, 'a'},
		"count overrun":  {0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"varint overflow": {0x00, 0x00, 0x00, 0x00,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, b := range cases {
		out := Trigger{Task: "keep"}
		err := out.DecodePayload(b)
		if !errors.Is(err, errMalformed) {
			t.Errorf("%s: error = %v, want errMalformed", name, err)
		}
		if out.Task != "keep" {
			t.Errorf("%s: failed decode modified the receiver: %+v", name, out)
		}
	}
	// Bools are exactly 0 or 1.
	var acc Accept
	bad := Accept{Task: "a"}.AppendPayload(nil)
	bad[3] = 2
	if err := acc.DecodePayload(bad); !errors.Is(err, errMalformed) {
		t.Errorf("bool byte 2 decoded: %v", err)
	}
}

func TestTriggerHeaderSelectsInstance(t *testing.T) {
	header := appendTriggerHeader(nil, "ab", 1)
	for _, c := range []struct {
		trg  Trigger
		want bool
	}{
		{Trigger{Task: "ab", Stage: 1, Job: 9}, true},
		{Trigger{Task: "ab", Stage: 0}, false},
		{Trigger{Task: "ab", Stage: -1}, false},
		{Trigger{Task: "ab", Stage: 64}, false},
		{Trigger{Task: "a", Stage: 1}, false},
		{Trigger{Task: "abc", Stage: 1}, false},
	} {
		if got := bytes.HasPrefix(c.trg.AppendPayload(nil), header); got != c.want {
			t.Errorf("header match for %q stage %d = %v, want %v", c.trg.Task, c.trg.Stage, got, c.want)
		}
	}
}

func TestSubtaskDropsOtherInstancesWithoutAllocating(t *testing.T) {
	s := NewSubtask()
	if err := s.Configure(map[string]string{
		AttrTask: "cam", AttrStage: "1", AttrExec: "1ms", AttrPriority: "1",
		AttrDeadline: "10ms", AttrProcessor: "0", AttrLast: "true", AttrKind: "aperiodic",
	}); err != nil {
		t.Fatal(err)
	}
	other := Trigger{Task: "cam", Job: 1, Stage: 0, Placement: twoStages}.AppendPayload(nil)
	allocs := testing.AllocsPerRun(100, func() {
		s.onTrigger(eventchan.Event{Type: EvTrigger, Payload: other})
	})
	if allocs != 0 {
		t.Errorf("dropping another instance's trigger allocates %v times", allocs)
	}
}

// fuzzPayload checks one payload type's decoder on arbitrary input: it
// either fails or yields a value that re-encodes to the identical bytes; it
// never panics; and what it allocates stays bounded by the input length.
func fuzzPayload[T any, P payloadDecoder[T]](f *testing.F, seeds ...Payload) {
	for _, s := range seeds {
		f.Add(s.AppendPayload(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		err := P(&v).DecodePayload(b)
		// The heap counters are process-wide, so another goroutine can
		// inflate one reading; an unbounded decoder exceeds every one.
		limit := 4096 + 64*uint64(len(b))
		for try := 0; decodeHeapBytes[T, P](b) > limit; try++ {
			if try == 2 {
				t.Fatalf("decoding %d bytes allocated over %d bytes three times", len(b), limit)
			}
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("error %v does not wrap errMalformed", err)
			}
			return
		}
		if again := P(&v).AppendPayload(nil); !bytes.Equal(again, b) {
			t.Fatalf("decoded %+v re-encodes to %x, input %x", v, again, b)
		}
	})
}

// decodeHeapBytes returns the heap bytes allocated while decoding b.
func decodeHeapBytes[T any, P payloadDecoder[T]](b []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var v T
	_ = P(&v).DecodePayload(b)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzTaskArrive(f *testing.F) { fuzzPayload[TaskArrive](f, goldenCases[0].in) }
func FuzzAccept(f *testing.F)     { fuzzPayload[Accept](f, goldenCases[1].in, Accept{}) }
func FuzzTrigger(f *testing.F)    { fuzzPayload[Trigger](f, goldenCases[2].in) }
func FuzzIdleReset(f *testing.F)  { fuzzPayload[IdleReset](f, goldenCases[3].in) }
func FuzzComplete(f *testing.F)   { fuzzPayload[Complete](f, goldenCases[4].in) }
func FuzzHeartbeat(f *testing.F)  { fuzzPayload[Heartbeat](f, goldenCases[5].in) }
func FuzzRepRecord(f *testing.F)  { fuzzPayload[RepRecord](f, goldenCases[6].in, RepRecord{}) }
func FuzzDone(f *testing.F)       { fuzzPayload[Done](f, goldenCases[7].in) }

// BenchmarkEventCodec round-trips each payload type through a reused
// encode buffer: encoding allocates nothing, decoding one object per string
// and per non-empty slice.
func BenchmarkEventCodec(b *testing.B) {
	for _, c := range goldenCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := c.in.AppendPayload(nil)
			dec := reflect.New(reflect.TypeOf(c.in)).Interface().(interface{ DecodePayload([]byte) error })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.in.AppendPayload(buf[:0])
				if err := dec.DecodePayload(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
