package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/live"
	"repro/internal/sched"
	"repro/internal/spec"
)

// failoverWorkload is a three-processor workload in which every stage placed
// on any single processor declares a replica elsewhere, so no single node
// loss withdraws a task — the zero-loss failover precondition.
func failoverWorkload(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(`{
	  "name": "failover",
	  "processors": 3,
	  "tasks": [
	    {"id": "cam", "kind": "aperiodic", "deadline": "500ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 0, "replicas": [2]},
	       {"exec": "2ms", "processor": 1, "replicas": [2]}
	     ]},
	    {"id": "lidar", "kind": "aperiodic", "deadline": "400ms", "meanInterarrival": "250ms",
	     "subtasks": [{"exec": "4ms", "processor": 1, "replicas": [0]}]},
	    {"id": "fuse", "kind": "aperiodic", "deadline": "600ms", "meanInterarrival": "250ms",
	     "subtasks": [
	       {"exec": "3ms", "processor": 2, "replicas": [0]},
	       {"exec": "2ms", "processor": 0, "replicas": [2]}
	     ]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// submitAll injects count arrivals of every deployed task and returns the
// number of non-error submissions.
func submitAll(t *testing.T, c *Cluster, count int) int {
	t.Helper()
	ids := make([]string, 0, count*3)
	for _, task := range c.Tasks() {
		for i := 0; i < count; i++ {
			ids = append(ids, task.ID)
		}
	}
	adms, err := c.SubmitBatch(ids)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	return len(adms)
}

// TestFailoverZeroLossAndWatchSemantics drives the whole survival story on
// one cluster — burst, kill, failover, burst, recover, burst, drain — and
// checks the zero-loss obligations plus the watch stream's ordering
// guarantees across the failure events.
func TestFailoverZeroLossAndWatchSemantics(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}

	submitAll(t, c, 4)
	// Kill while jobs are in flight so the dead-letter tracker has stranded
	// triggers to redeliver.
	submitAll(t, c, 3)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if report.Node != "app1" || report.Proc != 1 {
		t.Errorf("report identifies %s/%d, want app1/1", report.Node, report.Proc)
	}
	if report.Epoch < 1 {
		t.Errorf("failover epoch = %d, want >= 1", report.Epoch)
	}
	if report.Lost != 0 {
		t.Errorf("failover lost %d stranded jobs", report.Lost)
	}
	if len(report.Withdrawn) != 0 {
		t.Errorf("fully replicated workload withdrew tasks: %v", report.Withdrawn)
	}
	// cam and lidar each had a stage homed on processor 1; both must move.
	if len(report.Rehomed["cam"]) == 0 || len(report.Rehomed["lidar"]) == 0 {
		t.Errorf("rehoming incomplete: %v", report.Rehomed)
	}

	submitAll(t, c, 3)
	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	submitAll(t, c, 3)

	if !c.Drain(5 * time.Second) {
		t.Fatal("executors never drained")
	}
	// Admission decisions resolve asynchronously, so Released == Completed
	// can hold transiently while the last burst is still being decided:
	// require a snapshot that is both drained and quiet.
	snap := c.Snapshot()
	settle(t, 20*time.Second, func() bool {
		s := c.Snapshot()
		if s.Released != s.Completed {
			snap = s
			return false
		}
		// A loaded CI machine can sit on a pending decision for a while;
		// demand half a second of total silence before trusting the counts.
		time.Sleep(500 * time.Millisecond)
		s2 := c.Snapshot()
		snap = s2
		return s2 == s
	})
	if snap.Released != snap.Completed {
		t.Errorf("lost jobs: released %d, completed %d", snap.Released, snap.Completed)
	}
	if snap.Epoch != report.Epoch {
		t.Errorf("snapshot epoch %d != failover epoch %d", snap.Epoch, report.Epoch)
	}
	if _, lost := c.RedeliveryStats(); lost != 0 {
		t.Errorf("redelivery lost %d jobs", lost)
	}
	if err := c.AuditAdmissionState(); err != nil {
		t.Error(err)
	}

	// Give trailing Done events time to land, then read the stream back.
	time.Sleep(100 * time.Millisecond)
	watch.Cancel()
	if watch.Dropped() != 0 {
		t.Fatalf("watch dropped %d events; assertions below would be unsound", watch.Dropped())
	}
	var lastSeq int64
	completedBy := make(map[string]map[int64]int)
	nodeDown, nodeRecovered := 0, 0
	for ev := range watch.Events() {
		if ev.Seq <= lastSeq {
			t.Fatalf("Seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case core.WatchCompleted:
			if completedBy[ev.Task] == nil {
				completedBy[ev.Task] = make(map[int64]int)
			}
			completedBy[ev.Task][ev.Job]++
		case core.WatchNodeDown:
			nodeDown++
			if ev.Task != "app1" || ev.Job != -1 {
				t.Errorf("NodeDown event = %q/%d, want app1/-1", ev.Task, ev.Job)
			}
			if nodeRecovered != 0 {
				t.Error("NodeDown delivered after NodeRecovered")
			}
		case core.WatchNodeRecovered:
			nodeRecovered++
			if ev.Task != "app1" || ev.Job != -1 {
				t.Errorf("NodeRecovered event = %q/%d, want app1/-1", ev.Task, ev.Job)
			}
		}
	}
	if nodeDown != 1 {
		t.Errorf("NodeDown delivered %d times, want exactly once", nodeDown)
	}
	if nodeRecovered != 1 {
		t.Errorf("NodeRecovered delivered %d times, want exactly once", nodeRecovered)
	}
	var completions int64
	for task, jobs := range completedBy {
		for job, n := range jobs {
			completions++
			if n != 1 {
				t.Errorf("job %s/%d completed %d times on the watch stream (redelivery double-count)", task, job, n)
			}
		}
	}
	if completions != snap.Completed {
		t.Errorf("watch saw %d completions, counters say %d", completions, snap.Completed)
	}
}

// TestDetectorAutoFailover kills a node silently and lets the heartbeat
// detector find it: the WatchNodeDown declaration must arrive, the automatic
// failover must advance the epoch, and submissions to the re-homed task must
// succeed afterwards.
func TestDetectorAutoFailover(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{
		Workload:         failoverWorkload(t),
		Config:           cfg,
		Seed:             13,
		HeartbeatTimeout: 150 * time.Millisecond,
		AutoFailover:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	watch, err := c.Watch(core.WatchOptions{Kinds: []core.WatchKind{core.WatchNodeDown}})
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Cancel()

	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watch.Events():
		if ev.Task != "app0" {
			t.Fatalf("detector declared %q dead, want app0", ev.Task)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detector never declared the silent node dead")
	}

	// The detector runs the failover itself; wait for the epoch to advance.
	deadline := time.Now().Add(10 * time.Second)
	for c.Snapshot().Epoch < 1 {
		if time.Now().After(deadline) {
			t.Fatal("auto-failover never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// cam's home stage was on processor 0; after the failover it is re-homed
	// and a fresh submission must be accepted without ErrNodeDown.
	if _, err := c.Submit("cam"); err != nil {
		t.Fatalf("submit to re-homed task after auto-failover: %v", err)
	}
	var h *NodeHealth
	health := c.Health()
	for i := range health {
		if health[i].Node == "app0" {
			h = &health[i]
		}
	}
	if h == nil {
		t.Fatal("health report missing app0")
	}
	if h.Alive || !h.Suspect {
		t.Errorf("health for killed node = %+v, want dead and suspect", *h)
	}
}

// TestFailoverErrorSurface pins the failure-plane error contract: typed
// sentinels on submissions and lifecycle transactions while a node is down,
// and the failover/recover state machine's refusals.
func TestFailoverErrorSurface(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	if err := c.KillNode(5); err == nil {
		t.Error("KillNode accepted an unknown processor")
	}
	if _, err := c.Failover(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("Failover on a live processor: %v, want not-down refusal", err)
	}
	if err := c.RecoverNode(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("RecoverNode on a live processor: %v, want not-down refusal", err)
	}

	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("double KillNode: %v, want ErrNodeDown", err)
	}
	// lidar is homed on the dead processor and has not been failed over yet.
	if _, err := c.Submit("lidar"); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("Submit to dead home: %v, want ErrNodeDown", err)
	}
	// Lifecycle transactions are gated while a node is down un-failed-over.
	to := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	if _, err := c.Reconfigure(to); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("Reconfigure with a dead node: %v, want ErrNodeDown", err)
	}
	if err := c.RemoveTasks([]string{"fuse"}); !errors.Is(err, live.ErrNodeDown) {
		t.Errorf("RemoveTasks with a dead node: %v, want ErrNodeDown", err)
	}

	if _, err := c.Failover(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover(1); err == nil || !strings.Contains(err.Error(), "already failed over") {
		t.Errorf("repeat Failover: %v, want already-failed-over refusal", err)
	}
	// The re-homed task accepts submissions again.
	if _, err := c.Submit("lidar"); err != nil {
		t.Errorf("Submit after failover: %v", err)
	}

	if err := c.RecoverNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverNode(1); err == nil || !strings.Contains(err.Error(), "not down") {
		t.Errorf("repeat RecoverNode: %v, want not-down refusal", err)
	}
	// With the node recovered the lifecycle gate opens again.
	if _, err := c.Reconfigure(to); err != nil {
		t.Errorf("Reconfigure after recovery: %v", err)
	}
}

// The dead-letter tracker tails each node's channel independently, so it can
// see a job's Done before an earlier hop of the same job. A finished job
// must never be stranded by such a late hop: failing over the late hop's
// processor would run the job a second time.
func TestTrackerLateHopAfterDone(t *testing.T) {
	oneStage := []sched.PlacedStage{{Stage: 0, Proc: 1}}
	twoStage := []sched.PlacedStage{{Stage: 0, Proc: 1}, {Stage: 1, Proc: 2}}
	event := func(typ string, payload []byte) eventchan.Event {
		return eventchan.Event{Type: typ, Source: "app1", Payload: payload}
	}
	hopOn := func(placement []sched.PlacedStage, stage int) eventchan.Event {
		return event(live.EvTrigger, live.Trigger{Task: "cam", Job: 7, Stage: stage, Placement: placement}.AppendPayload(nil))
	}
	hop := func(stage int) eventchan.Event { return hopOn(twoStage, stage) }
	done := event(live.EvDone, live.Done{Task: "cam", Job: 7}.AppendPayload(nil))
	cases := []struct {
		name   string
		events []eventchan.Event
	}{
		{"done before release", []eventchan.Event{done, hopOn(oneStage, 0)}},
		{"done before both hops", []eventchan.Event{done, hop(1), hop(0)}},
		{"done between hops", []eventchan.Event{hop(1), done, hop(0)}},
		{"done after every hop", []eventchan.Event{hop(0), hop(1), done}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTracker(nil)
			onHop, onDone := tr.hopHandler("app1", 1), tr.doneHandler("app1")
			for _, ev := range tc.events {
				if ev.Type == live.EvDone {
					onDone(ev)
				} else {
					onHop(ev)
				}
			}
			if out := tr.activate(1); len(out) != 0 {
				t.Fatalf("finished job stranded on failover: %+v", out)
			}
			if len(tr.jobs) != 0 || len(tr.sent) != 0 {
				t.Fatalf("finished job still tracked: %d entries, %d in flight", len(tr.jobs), len(tr.sent))
			}
		})
	}

	// A stale stage-0 hop overtaken by the (delivered) stage-1 trigger must
	// not rewind an unfinished job onto its first stage's processor.
	tr := newTracker(nil)
	onHop := tr.hopHandler("app1", 1)
	onHop(hop(1))
	tr.hopHandler("app2", 2)(hop(1))
	onHop(hop(0))
	if out := tr.activate(1); len(out) != 0 {
		t.Fatalf("job rewound onto stage 0: %+v", out)
	}
	if out := tr.activate(2); len(out) != 1 || out[0].Stage != 1 {
		t.Fatalf("job on stage 1 not stranded by its processor's failover: %+v", out)
	}
}

// A hop to another node leaves through the pusher's gateway after the
// tracker recorded it. If the pusher dies before the hop reaches its target,
// the job is stranded although its next stage's processor survives.
func TestTrackerUndeliveredHopFromDeadNode(t *testing.T) {
	relocated := []sched.PlacedStage{{Stage: 0, Proc: 0}, {Stage: 1, Proc: 2}}
	payload := live.Trigger{Task: "fuse", Job: 42, Stage: 0, Placement: relocated}.AppendPayload(nil)
	release := eventchan.Event{Type: live.EvRelease, Source: "app2", Payload: payload}
	for _, delivered := range []bool{false, true} {
		tr := newTracker(nil)
		tr.hopHandler("app2", 2)(release)
		if delivered {
			tr.hopHandler("app0", 0)(release)
		}
		want := 1
		if delivered {
			want = 0
		}
		if out := tr.activate(2); len(out) != want {
			t.Fatalf("delivered=%v: %d jobs stranded, want %d: %+v", delivered, len(out), want, out)
		}
	}
}

// A failover re-homes a task onto a survivor, whose effector must continue
// the task's job numbering: no (task, job) pair may be admitted twice.
func TestFailoverKeepsJobIDsUnique(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerTask, LB: core.StrategyPerTask}
	c, err := Start(Options{Workload: failoverWorkload(t), Config: cfg, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	watch, err := c.Watch(core.WatchOptions{Buffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}

	// lidar is homed on processor 1: admit some of its jobs there first.
	for i := 0; i < 3; i++ {
		submitAll(t, c, 2)
		time.Sleep(50 * time.Millisecond)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	report, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rehomed["lidar"]) == 0 {
		t.Fatalf("lidar not re-homed: %v", report.Rehomed)
	}
	for i := 0; i < 3; i++ {
		submitAll(t, c, 2)
		time.Sleep(50 * time.Millisecond)
	}
	c.Drain(5 * time.Second)
	settle(t, 10*time.Second, func() bool {
		s := c.Snapshot()
		return s.Released == s.Completed
	})
	time.Sleep(100 * time.Millisecond)
	watch.Cancel()
	if watch.Dropped() != 0 {
		t.Fatalf("watch dropped %d events", watch.Dropped())
	}

	admitted := make(map[sched.JobRef]int)
	var lidarBefore, lidarAfter int
	down := false
	for ev := range watch.Events() {
		switch ev.Kind {
		case core.WatchNodeDown:
			down = true
		case core.WatchAdmitted:
			ref := sched.JobRef{Task: ev.Task, Job: ev.Job}
			if admitted[ref]++; admitted[ref] == 2 {
				t.Errorf("job %s/%d admitted twice", ev.Task, ev.Job)
			}
			if ev.Task == "lidar" && down {
				lidarAfter++
			} else if ev.Task == "lidar" {
				lidarBefore++
			}
		}
	}
	if lidarBefore == 0 || lidarAfter == 0 {
		t.Fatalf("lidar admitted %d jobs before and %d after the failover; the test needs both", lidarBefore, lidarAfter)
	}
}
