// Scenario execution and replay are a deterministic-replay surface: a sim
// run of a given spec is bit-reproducible, and replay must re-derive it.
//
//rtmw:deterministic file
package scenario

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/autopilot"
	"repro/internal/cluster"
	"repro/internal/core"
	wspec "repro/internal/spec"
	"repro/internal/workload"
)

// Binding names for Result.Binding.
const (
	BindingSim  = "sim"
	BindingLive = "live"
)

// Result is one scenario execution's outcome on one binding, including the
// invariant verdict.
type Result struct {
	// Scenario, Binding, Config, Horizon and Seed identify the run.
	Scenario string         `json:"scenario"`
	Binding  string         `json:"binding"`
	Config   string         `json:"config"`
	Horizon  wspec.Duration `json:"horizon"`
	Seed     int64          `json:"seed"`
	// TimeScale is the live compression factor (zero on the simulation).
	TimeScale float64 `json:"time_scale,omitempty"`
	// Ops is the compiled timeline length; FilteredArrivals counts arrivals
	// dropped because their task was not active (not yet added, or already
	// removed) when they fired.
	Ops              int `json:"ops"`
	FilteredArrivals int `json:"filtered_arrivals"`
	// Arrived through Lost are the run totals; Lost is Released − Completed
	// after the drain.
	Arrived   int64 `json:"arrived"`
	Released  int64 `json:"released"`
	Skipped   int64 `json:"skipped"`
	Completed int64 `json:"completed"`
	Missed    int64 `json:"missed"`
	Lost      int64 `json:"lost"`
	// Ratio is the accepted utilization ratio on the simulation and the
	// released/arrived count ratio on the live binding (whose counters do
	// not carry utilizations).
	Ratio float64 `json:"ratio"`
	// MissRate is the deadline-miss fraction over completed jobs.
	MissRate float64 `json:"miss_rate"`
	// Epoch is the final reconfiguration epoch.
	Epoch int64 `json:"epoch"`
	// WatchEvents, WatchDropped and WatchOrdered describe the run's watch
	// stream; LedgerClean the post-run admission-ledger audit.
	WatchEvents  int64 `json:"watch_events"`
	WatchDropped int64 `json:"watch_dropped"`
	WatchOrdered bool  `json:"watch_ordered"`
	LedgerClean  bool  `json:"ledger_clean"`
	// Wall is the execution's wall-clock time.
	Wall time.Duration `json:"wall_ns"`
	// Actuations, RegimeChanges and Decisions describe the autopilot when
	// the spec enables it: total Reconfigure actuations, classified regime
	// transitions, and the controller's decision journal.
	Actuations    int64                `json:"actuations,omitempty"`
	RegimeChanges int64                `json:"regime_changes,omitempty"`
	Decisions     []autopilot.Decision `json:"decisions,omitempty"`
	// MetricsJSON is the sim run's canonical metrics document — the
	// byte-identity artifact of the determinism guarantee. Excluded from
	// the marshaled result (the scenario JSON output stays compact).
	MetricsJSON []byte `json:"-"`
	// Violations lists every invariant the run broke; Passed is their
	// absence.
	Violations []string `json:"violations,omitempty"`
	Passed     bool     `json:"passed"`
}

// evaluate applies the spec's invariant block to a finished run, returning
// the violations. Live runs use the block's live overrides where present.
func evaluate(inv *Invariants, binding string, r *Result) []string {
	var v []string
	if inv.ZeroAdmittedLoss && r.Lost != 0 {
		v = append(v, fmt.Sprintf("zeroAdmittedLoss: %d admitted jobs lost (released %d, completed %d)", r.Lost, r.Released, r.Completed))
	}
	if inv.LedgerAudit && !r.LedgerClean {
		v = append(v, "ledgerAudit: admission ledger inconsistent after run")
	}
	if inv.WatchOrdering && !r.WatchOrdered {
		v = append(v, "watchOrdering: watch stream delivered out-of-order sequence numbers")
	}
	maxMiss := inv.MaxMissRate
	minArrived := inv.MinArrived
	if binding == BindingLive && inv.Live != nil {
		if inv.Live.MaxMissRate != nil {
			maxMiss = inv.Live.MaxMissRate
		}
		if inv.Live.MinArrived != nil {
			minArrived = *inv.Live.MinArrived
		}
	}
	if maxMiss != nil && r.MissRate > *maxMiss {
		v = append(v, fmt.Sprintf("maxMissRate: miss rate %.4f exceeds ceiling %.4f", r.MissRate, *maxMiss))
	}
	if minArrived > 0 && r.Arrived < minArrived {
		v = append(v, fmt.Sprintf("minArrived: only %d arrivals, expected at least %d", r.Arrived, minArrived))
	}
	if inv.MaxWatchDropped != nil && r.WatchDropped > *inv.MaxWatchDropped {
		v = append(v, fmt.Sprintf("maxWatchDropped: %d events dropped, cap %d", r.WatchDropped, *inv.MaxWatchDropped))
	}
	maxAct := inv.MaxActuations
	if binding == BindingLive && inv.Live != nil && inv.Live.MaxActuations != nil {
		maxAct = inv.Live.MaxActuations
	}
	if maxAct != nil && r.Actuations > *maxAct {
		v = append(v, fmt.Sprintf("maxActuations: autopilot actuated %d times, cap %d", r.Actuations, *maxAct))
	}
	return v
}

// watchProbe consumes a binding's watch stream concurrently: it counts
// events and deadline misses, checks strict Seq ordering, tallies the
// failure-plane events per node, and forwards every event to the recorder
// when one is attached.
type watchProbe struct {
	stream  *core.WatchStream
	events  atomic.Int64
	misses  atomic.Int64
	ordered atomic.Bool
	// nodeEvents is written by the consumer only; read it after finish.
	nodeEvents map[nodeEvent]int
	done       chan struct{}
}

// nodeEvent is one failure-plane watch event: a node declared down or
// recovered.
type nodeEvent struct {
	kind core.WatchKind
	node string
}

func newWatchProbe(stream *core.WatchStream, rec *Recorder) *watchProbe {
	p := &watchProbe{stream: stream, nodeEvents: make(map[nodeEvent]int), done: make(chan struct{})}
	p.ordered.Store(true)
	go func() {
		defer close(p.done)
		var lastSeq int64
		for ev := range stream.Events() {
			if ev.Seq <= lastSeq {
				p.ordered.Store(false)
			}
			lastSeq = ev.Seq
			p.events.Add(1)
			switch ev.Kind {
			case core.WatchDeadlineMiss:
				p.misses.Add(1)
			case core.WatchNodeDown, core.WatchNodeRecovered:
				p.nodeEvents[nodeEvent{ev.Kind, ev.Task}]++
			}
			if rec != nil {
				rec.Event(ev)
			}
		}
	}()
	return p
}

// finish cancels the stream, waits for the consumer, and fills the result's
// watch fields.
func (p *watchProbe) finish(r *Result) {
	p.stream.Cancel()
	<-p.done
	r.WatchEvents = p.events.Load()
	r.WatchDropped = p.stream.Dropped()
	r.WatchOrdered = p.ordered.Load()
}

// scenarioWatchBuffer sizes the run's watch stream: scenarios burst tens of
// thousands of lifecycle events, and a recording run must not shed any.
const scenarioWatchBuffer = 1 << 16

// RunSim executes the scenario on the deterministic simulation binding.
// Arrivals are open-loop (ExternalArrivals), driven entirely by the
// compiled timeline through At callbacks, so two runs of the same spec are
// identical event-for-event. When rec is non-nil the applied (post-filter)
// ops and the watch stream are recorded.
func RunSim(s *Spec, rec *Recorder) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c, err := compile(s)
	if err != nil {
		return nil, err
	}
	cfg, err := core.ParseConfig(s.Config)
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimSystem(core.SimConfig{
		Strategies:       cfg,
		NumProcs:         c.procs,
		Horizon:          time.Duration(s.Horizon),
		Seed:             s.Seed,
		ExternalArrivals: true,
	}, c.tasks)
	if err != nil {
		return nil, err
	}

	stream, err := sim.Watch(core.WatchOptions{Buffer: scenarioWatchBuffer})
	if err != nil {
		return nil, err
	}
	probe := newWatchProbe(stream, rec)

	res := &Result{
		Scenario: s.Name, Binding: BindingSim, Config: s.Config,
		Horizon: s.Horizon, Seed: s.Seed, Ops: len(c.ops),
	}
	active := make(map[string]bool, len(c.tasks))
	for _, t := range c.tasks {
		active[t.ID] = true
	}
	var cbErr error
	fail := func(err error) {
		if err != nil && cbErr == nil {
			cbErr = err
		}
	}
	for _, op := range c.ops {
		op := op
		var fn func()
		switch op.Kind {
		case InjectAddTasks:
			fn = func() {
				added, err := injectionTasks(Injection{Kind: InjectAddTasks, Tasks: op.Add}, c.procs)
				if err != nil {
					fail(err)
					return
				}
				if rec != nil {
					rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectAddTasks, Add: op.Add})
				}
				if err := sim.AddTasks(added); err != nil {
					fail(err)
					return
				}
				for _, t := range added {
					active[t.ID] = true
				}
			}
		case InjectReconfigure:
			fn = func() {
				to, err := core.ParseConfig(op.To)
				if err != nil {
					fail(err)
					return
				}
				if rec != nil {
					rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectReconfigure, To: op.To})
				}
				if _, err := sim.Reconfigure(to); err != nil {
					fail(err)
				}
			}
		case InjectKillNode, InjectRecoverNode:
			// The simulation has no node model: a node fault is recorded as a
			// timeline marker and otherwise ignored. Run the spec on the live
			// binding to exercise the failure path.
			fn = func() {
				if rec != nil {
					node := op.Node
					rec.Op(JournalOp{At: wspec.Duration(op.At), Op: op.Kind, Node: &node})
				}
			}
		default:
			fn = func() {
				_, err := applyOp(sim, op, active, res, rec)
				fail(err)
			}
		}
		if err := sim.At(op.At, fn); err != nil {
			return nil, err
		}
	}

	// The autopilot attaches after the timeline is scheduled, so at any
	// shared instant its decision tick runs after that instant's arrivals —
	// the controller sees the freshest window, and a recorded actuation
	// lands after the same-instant ops in the journal, which is exactly the
	// order Replay re-schedules.
	var ap *autopilot.Autopilot
	if s.Autopilot != nil && s.Autopilot.Enabled {
		opts, err := s.Autopilot.options()
		if err != nil {
			return nil, err
		}
		opts.OnAction = func(at time.Duration, from, to core.Config) {
			if rec != nil {
				rec.Op(JournalOp{At: wspec.Duration(at), Op: InjectReconfigure, To: to.String()})
			}
		}
		// An overload shed runs on the engine thread (inside the tick
		// callback), so retiring the victims from the active set here is
		// race-free, and later timeline arrivals for them are filtered
		// exactly as a remove_tasks injection's would be.
		opts.OnShed = func(at time.Duration, ids []string) {
			if rec != nil {
				rec.Op(JournalOp{At: wspec.Duration(at), Op: InjectRemoveTasks, IDs: ids})
			}
			for _, id := range ids {
				active[id] = false
			}
		}
		if ap, err = autopilot.New(opts); err != nil {
			return nil, err
		}
		if err := ap.AttachSim(sim, time.Duration(s.Autopilot.At), time.Duration(s.Horizon)); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	m := sim.Run() // panics on ledger inconsistency; audited again below
	res.Wall = time.Since(start)
	ledgerErr := sim.Controller().Ledger().CheckInvariants()
	snap := sim.Snapshot()
	if err := sim.Stop(); err != nil {
		return nil, err
	}
	probe.finish(res)
	if cbErr != nil {
		return nil, cbErr
	}

	res.Arrived = m.Total.Arrived
	res.Released = m.Total.Released
	res.Skipped = m.Total.Skipped
	res.Completed = m.Total.Completed
	res.Missed = m.Total.Missed
	res.Lost = m.Total.Released - m.Total.Completed
	res.Ratio = m.AcceptedUtilizationRatio()
	res.MissRate = m.Total.MissRatio()
	res.Epoch = snap.Epoch
	res.LedgerClean = ledgerErr == nil
	if ap != nil {
		st := ap.Stats()
		res.Actuations = st.Actuations
		res.RegimeChanges = st.RegimeChanges
		res.Decisions = ap.Journal()
	}
	if res.MetricsJSON, err = CanonicalMetricsJSON(s.Name, m); err != nil {
		return nil, err
	}
	res.Violations = evaluate(s.Invariants, BindingSim, res)
	res.Passed = len(res.Violations) == 0
	return res, nil
}

// binding is the op surface applyOp drives — the subset of the unified
// Binding interface both executors share.
type binding interface {
	SubmitBatch(ids []string) ([]core.Admission, error)
	RemoveTasks(ids []string) error
}

// applyOp applies one timeline op to a binding, filtering against the
// active task set, recording the post-filter op, and updating the result's
// counters. AddTasks and Reconfigure differ per binding (task scaling,
// config types), so the callers handle those kinds before delegating here.
func applyOp(b binding, op Op, active map[string]bool, res *Result, rec *Recorder) (bool, error) {
	switch op.Kind {
	case OpSubmit:
		ids := make([]string, 0, len(op.Tasks))
		for _, id := range op.Tasks {
			if active[id] {
				ids = append(ids, id)
			} else {
				res.FilteredArrivals++
			}
		}
		if len(ids) == 0 {
			return false, nil
		}
		if rec != nil {
			rec.Op(JournalOp{At: wspec.Duration(op.At), Op: OpSubmit, Tasks: ids})
		}
		if _, err := b.SubmitBatch(ids); err != nil {
			return false, err
		}
		return true, nil
	case InjectRemoveTasks:
		ids := make([]string, 0, len(op.IDs))
		for _, id := range op.IDs {
			if active[id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return false, nil
		}
		if rec != nil {
			rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectRemoveTasks, IDs: ids})
		}
		if err := b.RemoveTasks(ids); err != nil {
			return false, err
		}
		for _, id := range ids {
			delete(active, id)
		}
		return true, nil
	}
	return false, fmt.Errorf("scenario: applyOp: unexpected op kind %q", op.Kind)
}

// RunLive executes the scenario on the live loopback cluster. The workload
// and every joining task are compressed by the time-scale factor (zero
// means the spec's setting), the timeline plays back against the wall clock
// at the same compression, and the run drains and settles before the
// invariant check. When rec is non-nil, ops are recorded in the scenario's
// unscaled virtual timebase so the journal replays into the simulation.
func RunLive(s *Spec, timeScale float64, rec *Recorder) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c, err := compile(s)
	if err != nil {
		return nil, err
	}
	cfg, err := core.ParseConfig(s.Config)
	if err != nil {
		return nil, err
	}
	scale := timeScale
	if scale <= 0 {
		scale = s.timeScale()
	}

	w := wspec.FromTasks(s.Name, c.procs, workload.Scale(c.tasks, 1/scale))
	start := time.Now()
	cl, err := cluster.Start(cluster.Options{Workload: w, Config: cfg, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	stream, err := cl.Watch(core.WatchOptions{Buffer: scenarioWatchBuffer})
	if err != nil {
		return nil, err
	}
	probe := newWatchProbe(stream, rec)

	res := &Result{
		Scenario: s.Name, Binding: BindingLive, Config: s.Config,
		Horizon: s.Horizon, Seed: s.Seed, TimeScale: scale, Ops: len(c.ops),
	}
	active := make(map[string]bool, len(c.tasks))
	for _, t := range c.tasks {
		active[t.ID] = true
	}
	// Every node fault must surface on the watch stream as the matching
	// failure-plane event naming the node.
	var wantNodeEvents []nodeEvent

	base := time.Now()

	// The live controller runs on the wall clock: options scale by the same
	// compression as the workload, and recorded actuations convert back to
	// the scenario timebase so a live journal replays into the simulation.
	var ap *autopilot.Autopilot
	if s.Autopilot != nil && s.Autopilot.Enabled {
		opts, err := s.Autopilot.options()
		if err != nil {
			return nil, err
		}
		opts = opts.Scale(scale)
		// Shedding is sim-only in the declarative runner: this loop owns the
		// active-task set, and the controller goroutine removing tasks
		// mid-timeline would race it (see AutopilotSpec.OverloadShed).
		opts.OverloadShed = nil
		baseNano := time.Duration(base.UnixNano())
		opts.OnAction = func(at time.Duration, from, to core.Config) {
			if rec != nil {
				rec.Op(JournalOp{At: wspec.Duration(float64(at-baseNano) * scale), Op: InjectReconfigure, To: to.String()})
			}
		}
		if ap, err = autopilot.New(opts); err != nil {
			return nil, err
		}
		if err := ap.Start(cl); err != nil {
			return nil, err
		}
		defer ap.Stop()
	}

	for _, op := range c.ops {
		wall := base.Add(time.Duration(float64(op.At) / scale))
		if d := time.Until(wall); d > 0 {
			time.Sleep(d)
		}
		switch op.Kind {
		case InjectAddTasks:
			added, err := injectionTasks(Injection{Kind: InjectAddTasks, Tasks: op.Add}, c.procs)
			if err != nil {
				return nil, err
			}
			if rec != nil {
				rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectAddTasks, Add: op.Add})
			}
			if err := cl.AddTasks(workload.Scale(added, 1/scale)); err != nil {
				return nil, err
			}
			for _, t := range added {
				active[t.ID] = true
			}
		case InjectReconfigure:
			to, err := core.ParseConfig(op.To)
			if err != nil {
				return nil, err
			}
			if rec != nil {
				rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectReconfigure, To: op.To})
			}
			if _, err := cl.Reconfigure(to); err != nil {
				return nil, err
			}
		case InjectKillNode:
			// Kill the node abruptly, then run the failover synchronously so
			// the timeline's ordering stays deterministic: every later op sees
			// the post-failover placement. Tasks the failover withdrew (no
			// surviving replica) leave the active set, so their remaining
			// arrivals are filtered rather than submitted into an error.
			if rec != nil {
				node := op.Node
				rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectKillNode, Node: &node})
			}
			wantNodeEvents = append(wantNodeEvents, nodeEvent{core.WatchNodeDown, cl.Apps[op.Node].Name})
			if err := cl.KillNode(op.Node); err != nil {
				return nil, err
			}
			report, err := cl.Failover(op.Node)
			if err != nil {
				return nil, err
			}
			for _, id := range report.Withdrawn {
				delete(active, id)
			}
		case InjectRecoverNode:
			if rec != nil {
				node := op.Node
				rec.Op(JournalOp{At: wspec.Duration(op.At), Op: InjectRecoverNode, Node: &node})
			}
			wantNodeEvents = append(wantNodeEvents, nodeEvent{core.WatchNodeRecovered, cl.Apps[op.Node].Name})
			if err := cl.RecoverNode(op.Node); err != nil {
				return nil, err
			}
		default:
			if _, err := applyOp(cl, op, active, res, rec); err != nil {
				return nil, err
			}
		}
	}

	// Play out the remaining horizon, then drain and settle: completions
	// propagate through local Done events, so wait until the released and
	// completed counters agree (or the deadline passes — counted as loss).
	if d := time.Until(base.Add(time.Duration(float64(time.Duration(s.Horizon)) / scale))); d > 0 {
		time.Sleep(d)
	}
	// Halt the controller at the horizon so the drain's emptying queues
	// don't read as one more regime change.
	if ap != nil {
		ap.Stop()
		st := ap.Stats()
		res.Actuations = st.Actuations
		res.RegimeChanges = st.RegimeChanges
		res.Decisions = ap.Journal()
	}
	cl.Drain(5 * time.Second)
	settleDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(settleDeadline) {
		snap := cl.Snapshot()
		if snap.Released == snap.Completed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res.Wall = time.Since(start)

	snap := cl.Snapshot()
	res.Arrived = snap.Arrived
	res.Released = snap.Released
	res.Skipped = snap.Skipped
	res.Completed = snap.Completed
	res.Lost = snap.Released - snap.Completed
	res.Epoch = snap.Epoch
	if snap.Arrived > 0 {
		res.Ratio = float64(snap.Released) / float64(snap.Arrived)
	}
	// The live audit covers the active ledger and the warm-standby mirror:
	// replication is synchronous on the manager's local channel, so a clean
	// run must leave both consistent.
	res.LedgerClean = cl.AuditAdmissionState() == nil
	probe.finish(res)
	res.Missed = probe.misses.Load()
	if res.Completed > 0 {
		res.MissRate = float64(res.Missed) / float64(res.Completed)
	}
	res.Violations = evaluate(s.Invariants, BindingLive, res)
	for _, want := range wantNodeEvents {
		if probe.nodeEvents[want]--; probe.nodeEvents[want] < 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("failurePlane: no %s watch event for node %q", want.kind, want.node))
		}
	}
	res.Passed = len(res.Violations) == 0
	return res, nil
}
