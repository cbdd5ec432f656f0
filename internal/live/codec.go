package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/sched"
)

// Wire format of the eight live event payloads. A payload is its fields in
// a fixed order, with no type tag (the event's Type names the payload) and
// no version: every node of a deployment must run the same build.
//
//	int, int64, TaskKind  zigzag varint, minimal length
//	string                uvarint byte length | bytes
//	bool                  one byte, 0 or 1
//	float64               8 bytes, little-endian IEEE-754 bits (exact)
//	slice                 uvarint count | elements; empty decodes as nil
//
// The encoding is canonical: a value has exactly one wire form and the
// decoders reject every other (overlong varints, bool bytes other than 0 and
// 1, trailing bytes), so equal payloads are equal byte strings.
//
// Each payload type has AppendPayload(b []byte) []byte, which appends its
// wire form to b, and a pointer-receiver DecodePayload(b []byte) error,
// which parses it and leaves the receiver unchanged on error.

// Element sizes. The Min sizes are the shortest encodings of one slice
// element, used to cap a decoded count by the bytes that remain; the others
// pre-size an encode buffer so one append usually allocates once.
const (
	maxVarint      = binary.MaxVarintLen64
	placedStageMax = 2*maxVarint + 8
	placedStageMin = 1 + 1 + 8
	entryRefMin    = 1 + 1 + 1 + 1
	entryRefGuess  = 4*maxVarint + 16
)

// AppendPayload appends the wire form: Task, Job, Proc, ArrivalNanos.
func (e TaskArrive) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 4*maxVarint+len(e.Task))
	b = appendString(b, e.Task)
	b = binary.AppendVarint(b, e.Job)
	b = binary.AppendVarint(b, int64(e.Proc))
	return binary.AppendVarint(b, e.ArrivalNanos)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *TaskArrive) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := TaskArrive{Task: r.str(), Job: r.varint(), Proc: r.int(), ArrivalNanos: r.varint()}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Task, Job, Ok, Placement, Relocated,
// PerTaskDecision, ArrivalNanos, Epoch.
func (e Accept) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 5*maxVarint+3+len(e.Task)+len(e.Placement)*placedStageMax)
	b = appendString(b, e.Task)
	b = binary.AppendVarint(b, e.Job)
	b = appendBool(b, e.Ok)
	b = appendPlacement(b, e.Placement)
	b = appendBool(b, e.Relocated)
	b = appendBool(b, e.PerTaskDecision)
	b = binary.AppendVarint(b, e.ArrivalNanos)
	return binary.AppendVarint(b, e.Epoch)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *Accept) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := Accept{
		Task: r.str(), Job: r.varint(), Ok: r.bool(), Placement: r.placement(),
		Relocated: r.bool(), PerTaskDecision: r.bool(),
		ArrivalNanos: r.varint(), Epoch: r.varint(),
	}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Task, Stage, Job, Placement,
// ArrivalNanos. Task and Stage lead so a subtask instance can reject another
// instance's trigger by its header bytes alone (see appendTriggerHeader).
func (e Trigger) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 5*maxVarint+len(e.Task)+len(e.Placement)*placedStageMax)
	b = appendTriggerHeader(b, e.Task, e.Stage)
	b = binary.AppendVarint(b, e.Job)
	b = appendPlacement(b, e.Placement)
	return binary.AppendVarint(b, e.ArrivalNanos)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *Trigger) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := Trigger{
		Task: r.str(), Stage: r.int(), Job: r.varint(),
		Placement: r.placement(), ArrivalNanos: r.varint(),
	}
	return finish(&r, e, v)
}

// appendTriggerHeader appends a Trigger's leading Task and Stage fields.
// Both are self-delimiting, so a Trigger payload starts with this header
// exactly when its Task and Stage equal the arguments.
func appendTriggerHeader(b []byte, task string, stage int) []byte {
	b = appendString(b, task)
	return binary.AppendVarint(b, int64(stage))
}

// AppendPayload appends the wire form: Proc, Entries.
func (e IdleReset) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 2*maxVarint+len(e.Entries)*entryRefGuess)
	b = binary.AppendVarint(b, int64(e.Proc))
	return appendEntries(b, e.Entries)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *IdleReset) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := IdleReset{Proc: r.int(), Entries: r.entries()}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Ref.Task, Ref.Job, Stage, Kind,
// DeadlineNanos.
func (e Complete) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 5*maxVarint+len(e.Ref.Task))
	b = appendString(b, e.Ref.Task)
	b = binary.AppendVarint(b, e.Ref.Job)
	b = binary.AppendVarint(b, int64(e.Stage))
	b = binary.AppendVarint(b, int64(e.Kind))
	return binary.AppendVarint(b, e.DeadlineNanos)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *Complete) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := Complete{
		Ref:   sched.JobRef{Task: r.str(), Job: r.varint()},
		Stage: r.int(), Kind: sched.TaskKind(r.int()), DeadlineNanos: r.varint(),
	}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Node, Proc, Seq, SentNanos.
func (e Heartbeat) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 4*maxVarint+len(e.Node))
	b = appendString(b, e.Node)
	b = binary.AppendVarint(b, int64(e.Proc))
	b = binary.AppendVarint(b, e.Seq)
	return binary.AppendVarint(b, e.SentNanos)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *Heartbeat) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := Heartbeat{Node: r.str(), Proc: r.int(), Seq: r.varint(), SentNanos: r.varint()}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Epoch, Seq, Kind, Ref.Task, Ref.Job,
// TaskKind, Placement, Permanent, ExpiryNanos, Task, Entries.
func (e RepRecord) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 10*maxVarint+1+len(e.Kind)+len(e.Ref.Task)+len(e.Task)+
		len(e.Placement)*placedStageMax+len(e.Entries)*entryRefGuess)
	b = binary.AppendVarint(b, e.Epoch)
	b = binary.AppendVarint(b, e.Seq)
	b = appendString(b, e.Kind)
	b = appendString(b, e.Ref.Task)
	b = binary.AppendVarint(b, e.Ref.Job)
	b = binary.AppendVarint(b, int64(e.TaskKind))
	b = appendPlacement(b, e.Placement)
	b = appendBool(b, e.Permanent)
	b = binary.AppendVarint(b, e.ExpiryNanos)
	b = appendString(b, e.Task)
	return appendEntries(b, e.Entries)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *RepRecord) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := RepRecord{
		Epoch: r.varint(), Seq: r.varint(), Kind: r.str(),
		Ref:      sched.JobRef{Task: r.str(), Job: r.varint()},
		TaskKind: sched.TaskKind(r.int()), Placement: r.placement(),
		Permanent: r.bool(), ExpiryNanos: r.varint(), Task: r.str(),
		Entries: r.entries(),
	}
	return finish(&r, e, v)
}

// AppendPayload appends the wire form: Task, Job, ArrivalNanos, DoneNanos.
func (e Done) AppendPayload(b []byte) []byte {
	b = slices.Grow(b, 4*maxVarint+len(e.Task))
	b = appendString(b, e.Task)
	b = binary.AppendVarint(b, e.Job)
	b = binary.AppendVarint(b, e.ArrivalNanos)
	return binary.AppendVarint(b, e.DoneNanos)
}

// DecodePayload parses the wire form written by AppendPayload.
func (e *Done) DecodePayload(b []byte) error {
	r := payloadReader{b: b}
	v := Done{Task: r.str(), Job: r.varint(), ArrivalNanos: r.varint(), DoneNanos: r.varint()}
	return finish(&r, e, v)
}

// appendString appends a uvarint length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBool appends one 0/1 byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendPlacement appends a counted []PlacedStage; Util travels as its exact
// IEEE-754 bits so ledger sums stay bit-identical across the wire.
func appendPlacement(b []byte, p []sched.PlacedStage) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, s := range p {
		b = binary.AppendVarint(b, int64(s.Stage))
		b = binary.AppendVarint(b, int64(s.Proc))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Util))
	}
	return b
}

// appendEntries appends a counted []EntryRef.
func appendEntries(b []byte, es []sched.EntryRef) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendString(b, e.Ref.Task)
		b = binary.AppendVarint(b, e.Ref.Job)
		b = binary.AppendVarint(b, int64(e.Stage))
		b = binary.AppendVarint(b, int64(e.Proc))
	}
	return b
}

// errMalformed is wrapped by every payload decode error.
var errMalformed = errors.New("malformed payload")

// payloadReader consumes one payload field by field. The first failure is
// sticky: later reads return zero values and finish reports it, so a
// decoder is a straight-line sequence of reads with one error check.
type payloadReader struct {
	b   []byte
	err error
}

// fail records the first failure and stops further reads.
func (r *payloadReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errMalformed, what)
	}
	r.b = nil
}

// finish stores v into *dst if every field decoded and no bytes remain.
func finish[T any](r *payloadReader, dst *T, v T) error {
	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return fmt.Errorf("live: decode %T: %w", v, r.err)
	}
	*dst = v
	return nil
}

// uvarint reads a minimal-length unsigned varint.
func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a minimal-length zigzag varint.
func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a varint that must fit the platform int.
func (r *payloadReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("int overflow")
		return 0
	}
	return int(v)
}

// str reads a length-prefixed string.
func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// bool reads one 0/1 byte.
func (r *payloadReader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bad bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// float reads 8 little-endian IEEE-754 bytes.
func (r *payloadReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a slice length, rejecting one the remaining bytes cannot
// hold at minSize bytes per element, so a hostile count cannot force a large
// allocation.
func (r *payloadReader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minSize) {
		r.fail(fmt.Sprintf("count %d exceeds %d remaining bytes", n, len(r.b)))
		return 0
	}
	return int(n)
}

// placement reads a counted []PlacedStage (nil when empty).
func (r *payloadReader) placement() []sched.PlacedStage {
	n := r.count(placedStageMin)
	if n == 0 {
		return nil
	}
	p := make([]sched.PlacedStage, n)
	for i := range p {
		p[i] = sched.PlacedStage{Stage: r.int(), Proc: r.int(), Util: r.float()}
	}
	return p
}

// entries reads a counted []EntryRef (nil when empty).
func (r *payloadReader) entries() []sched.EntryRef {
	n := r.count(entryRefMin)
	if n == 0 {
		return nil
	}
	es := make([]sched.EntryRef, n)
	for i := range es {
		es[i] = sched.EntryRef{
			Ref:   sched.JobRef{Task: r.str(), Job: r.varint()},
			Stage: r.int(), Proc: r.int(),
		}
	}
	return es
}
