package live

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestSentinelErrors pins the exported sentinels so Binding callers can
// discriminate failures with errors.Is.
func TestSentinelErrors(t *testing.T) {
	// Activate before Configure → ErrNotConfigured.
	node, err := NewNode("sent-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := &ccm.Context{Node: "sent-test", ORB: node.ORB, Events: node.Channel}
	if err := NewAdmissionController().Activate(ctx); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("AC Activate error = %v, want ErrNotConfigured", err)
	}
	if err := NewIdleResetter().Activate(ctx); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("IR Activate error = %v, want ErrNotConfigured", err)
	}
	if err := NewTaskEffector().Reconfigure(nil); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("TE Reconfigure error = %v, want ErrNotConfigured", err)
	}

	// Bad strategy attributes → ErrInvalidStrategy.
	attrs := acAttrs()
	attrs[AttrIRStrategy] = "Z"
	if err := NewAdmissionController().Configure(attrs); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("bad strategy error = %v, want ErrInvalidStrategy", err)
	}
	attrs = acAttrs()
	attrs[AttrACStrategy] = "T"
	attrs[AttrIRStrategy] = "J"
	if err := NewAdmissionController().Configure(attrs); !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("contradictory combo error = %v, want ErrInvalidStrategy", err)
	}

	// Configure after Activate → ErrAlreadyActive.
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil {
		t.Fatal(err)
	}
	if err := ac.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ac.Configure(acAttrs()); !errors.Is(err, ErrAlreadyActive) {
		t.Errorf("re-Configure error = %v, want ErrAlreadyActive", err)
	}

	// Reconfigure without quiesce → ErrNotQuiesced; double quiesce →
	// ErrQuiesced.
	if err := ac.Reconfigure(map[string]string{}); !errors.Is(err, ErrNotQuiesced) {
		t.Errorf("unquiesced Reconfigure error = %v, want ErrNotQuiesced", err)
	}
	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Quiesce(); !errors.Is(err, ErrQuiesced) {
		t.Errorf("double Quiesce error = %v, want ErrQuiesced", err)
	}
	if _, err := ac.Resume(); err != nil {
		t.Fatal(err)
	}
}

// TestACReconfigureSwapsStrategies pins the AC's hot-swap under quiesce:
// the embedded controller changes combination without being rebuilt.
func TestACReconfigureSwapsStrategies(t *testing.T) {
	node, err := NewNode("acre-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ac := NewAdmissionController()
	if err := ac.Configure(acAttrs()); err != nil { // J_T_N
		t.Fatal(err)
	}
	if err := ac.Activate(&ccm.Context{Node: "acre-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	ctrl := ac.Controller()
	epoch, err := ac.Quiesce()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Errorf("upcoming epoch = %d", epoch)
	}
	err = ac.Reconfigure(map[string]string{
		AttrACStrategy: "J", AttrIRStrategy: "J", AttrLBStrategy: "J", AttrEpoch: "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ac.Resume(); err != nil || n != 0 {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	if got := ctrl.Config().String(); got != "J_J_J" {
		t.Errorf("controller config = %s, want J_J_J", got)
	}
	if ac.Controller() != ctrl {
		t.Error("controller was rebuilt; the ledger did not survive")
	}
	if ac.Epoch() != 1 {
		t.Errorf("epoch = %d", ac.Epoch())
	}
	// Invalid target under quiesce leaves the config untouched.
	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	err = ac.Reconfigure(map[string]string{AttrACStrategy: "T", AttrIRStrategy: "J"})
	if !errors.Is(err, ErrInvalidStrategy) {
		t.Errorf("contradictory Reconfigure error = %v", err)
	}
	// A malformed epoch must also fail BEFORE anything mutates: an error
	// return means nothing changed.
	if err := ac.Reconfigure(map[string]string{AttrACStrategy: "T", AttrEpoch: "bogus"}); err == nil {
		t.Error("bogus epoch accepted")
	}
	if _, err := ac.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Config().String(); got != "J_J_J" {
		t.Errorf("config disturbed by rejected target: %s", got)
	}
	if ac.Epoch() != 1 {
		t.Errorf("epoch disturbed by rejected target: %d", ac.Epoch())
	}
}

// resumeWorkloadJSON has deadlines long enough that no expiry timer fires
// while a test replays its deferred arrivals.
const resumeWorkloadJSON = `{
  "name": "resume",
  "processors": 2,
  "tasks": [
    {"id": "p", "kind": "periodic", "period": "10s", "deadline": "10s",
     "subtasks": [{"exec": "500ms", "processor": 0, "replicas": [1]}]},
    {"id": "a", "kind": "aperiodic", "deadline": "10s",
     "subtasks": [{"exec": "500ms", "processor": 1, "replicas": [0]}]}
  ]
}`

// TestACResumeReplaysDeferredArrivals pins the quiesce buffer: arrivals
// pushed while quiesced emit no Accept, and Resume decides them in arrival
// order under the new configuration and epoch, exactly as a fresh
// controller deciding the same arrivals one by one would.
func TestACResumeReplaysDeferredArrivals(t *testing.T) {
	node, err := NewNode("acresume-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ac := NewAdmissionController()
	attrs := acAttrs() // J_T_N
	attrs[AttrWorkload] = resumeWorkloadJSON
	if err := ac.Configure(attrs); err != nil {
		t.Fatal(err)
	}
	if err := ac.Activate(&ccm.Context{Node: "acresume-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	defer ac.Passivate()
	var mu sync.Mutex
	var accepts []Accept
	node.Channel.Subscribe(EvAccept, func(ev eventchan.Event) {
		var a Accept
		if err := a.DecodePayload(ev.Payload); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		accepts = append(accepts, a)
		mu.Unlock()
	})
	received := func() []Accept {
		mu.Lock()
		defer mu.Unlock()
		return append([]Accept(nil), accepts...)
	}

	if _, err := ac.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Alternate the two tasks until the 1.2 total utilization overloads
	// both processors, so the replay both accepts and rejects.
	const n = 24
	base := time.Now().UnixNano()
	arrivals := make([]TaskArrive, n)
	for i := range arrivals {
		arr := TaskArrive{Task: "a", Job: int64(i / 2), Proc: 1, ArrivalNanos: base + int64(i)}
		if i%2 == 1 {
			arr.Task, arr.Proc = "p", 0
		}
		arrivals[i] = arr
		if err := node.Channel.Push(eventchan.Event{Type: EvTaskArrive, Payload: arr.AppendPayload(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := received(); len(got) != 0 {
		t.Fatalf("%d Accepts emitted while quiesced", len(got))
	}
	newCfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	if err := ac.Reconfigure(map[string]string{
		AttrACStrategy: "J", AttrIRStrategy: "J", AttrLBStrategy: "J", AttrEpoch: "1",
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := ac.Resume(); err != nil || got != n {
		t.Fatalf("Resume = %d, %v; want %d, nil", got, err, n)
	}

	w, err := spec.Parse([]byte(resumeWorkloadJSON))
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := w.SchedTasks()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*sched.Task, len(tasks))
	for _, tk := range tasks {
		byID[tk.ID] = tk
	}
	fresh, err := core.NewControllerSharded(newCfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := received()
	if len(got) != n {
		t.Fatalf("%d Accepts after Resume, want %d", len(got), n)
	}
	var accepted, rejected int
	for i, arr := range arrivals {
		a := got[i]
		if a.Task != arr.Task || a.Job != arr.Job || a.ArrivalNanos != arr.ArrivalNanos {
			t.Fatalf("Accept %d answers %s/%d@%d, want %s/%d@%d (arrival order)",
				i, a.Task, a.Job, a.ArrivalNanos, arr.Task, arr.Job, arr.ArrivalNanos)
		}
		if a.Epoch != 1 {
			t.Errorf("Accept %d stamped epoch %d, want 1", i, a.Epoch)
		}
		d := fresh.Arrive(byID[arr.Task], arr.Job, time.Duration(arr.ArrivalNanos))
		if a.Ok != d.Accept || a.Relocated != d.Relocated || !reflect.DeepEqual(a.Placement, d.Placement) {
			t.Errorf("arrival %d (%s/%d): replayed ok=%v relocated=%v placement=%v, sequential ok=%v relocated=%v placement=%v",
				i, arr.Task, arr.Job, a.Ok, a.Relocated, a.Placement, d.Accept, d.Relocated, d.Placement)
		}
		if a.Ok {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("replay accepted %d and rejected %d; want both decisions exercised", accepted, rejected)
	}
}

// TestTEReconfigureDropsStaleDecisions pins the epoch filter: cached
// per-task decisions clear on reconfigure, and an Accept stamped with the
// old epoch releases its job without being re-cached.
func TestTEReconfigureDropsStaleDecisions(t *testing.T) {
	node, err := NewNode("tere-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	te := NewTaskEffector()
	if err := te.Configure(map[string]string{AttrProcessor: "0", AttrWorkload: testWorkloadJSON}); err != nil {
		t.Fatal(err)
	}
	if err := te.Activate(&ccm.Context{Node: "tere-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	// Submit then deliver an epoch-0 per-task decision: it caches.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept := func(job int64, epoch int64) {
		te.onAccept(eventchan.Event{Type: EvAccept, Payload: Accept{
			Task: "p", Job: job, Ok: true,
			Placement:       []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.05}},
			PerTaskDecision: true,
			Epoch:           epoch,
		}.AppendPayload(nil)})
	}
	accept(0, 0)
	cached := len(*te.decided.Load())
	if cached != 1 {
		t.Fatalf("decision not cached: %d", cached)
	}

	// Reconfigure to epoch 1: the cache clears.
	if err := te.Reconfigure(map[string]string{AttrEpoch: "1"}); err != nil {
		t.Fatal(err)
	}
	cached = len(*te.decided.Load())
	if cached != 0 {
		t.Fatalf("cache survived reconfigure: %d", cached)
	}

	// A stale epoch-0 Accept for a held job releases it but is not cached.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept(1, 0)
	cached = len(*te.decided.Load())
	released := te.StatsSnapshot().Released
	if cached != 0 {
		t.Error("stale-epoch decision was cached")
	}
	if released != 2 {
		t.Errorf("released = %d, want 2 (stale decision must still release its job)", released)
	}
	// A current-epoch Accept caches again.
	if _, err := te.SubmitJob("p"); err != nil {
		t.Fatal(err)
	}
	accept(2, 1)
	cached = len(*te.decided.Load())
	if cached != 1 {
		t.Error("current-epoch decision not cached")
	}
}

// TestIRReconfigureSwapsRule pins the IR hot-swap: pending completions are
// refiltered and the strategy changes in place.
func TestIRReconfigureSwapsRule(t *testing.T) {
	ir := core.NewIdleResetter(core.StrategyPerJob, 0)
	ir.Complete(sched.JobRef{Task: "p", Job: 0}, 0, sched.Periodic, 1e9)
	ir.Complete(sched.JobRef{Task: "a", Job: 0}, 0, sched.Aperiodic, 1e9)
	if ir.PendingCount() != 2 {
		t.Fatalf("pending = %d", ir.PendingCount())
	}
	// Per-job → per-task drops the pending periodic completion.
	ir.SetStrategy(core.StrategyPerTask)
	if ir.PendingCount() != 1 {
		t.Errorf("pending after per-task swap = %d, want 1", ir.PendingCount())
	}
	// → none drops everything.
	ir.SetStrategy(core.StrategyNone)
	if ir.PendingCount() != 0 {
		t.Errorf("pending after none swap = %d", ir.PendingCount())
	}

	// The live component refuses enabling IR without an executor.
	comp := NewIdleResetter()
	if err := comp.Configure(map[string]string{AttrProcessor: "0", AttrIRStrategy: "N"}); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("irre-test", 0, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := comp.Activate(&ccm.Context{Node: "irre-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	if err := comp.Reconfigure(map[string]string{AttrIRStrategy: "J"}); err == nil {
		t.Error("IR enabled resetting without an executor service")
	}
	if err := comp.Reconfigure(map[string]string{}); err != nil {
		t.Errorf("no-op reconfigure failed: %v", err)
	}
}
