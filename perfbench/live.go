package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/spec"
)

// drainTimeout bounds the wait for a phase's jobs to resolve.
const drainTimeout = 10 * time.Second

// jobKey identifies one job: dense task index and the binding's job number.
type jobKey struct {
	task int32
	job  int64
}

// observed is one job-level watch event as the watcher received it.
type observed struct {
	kind core.WatchKind
	key  jobKey
	at   int64 // the binding's emission stamp (UnixNano)
	recv int64 // receipt by the watcher (UnixNano)
}

// deployment is one running cluster with the run's single watch subscription
// and the goroutine reading it.
type deployment struct {
	c      *cluster.Cluster
	stream *core.WatchStream
	ids    []string
	index  map[string]int32

	mu     sync.Mutex
	events []observed
	// decided counts Admitted + Rejected events and finished Completed +
	// Rejected events. The two are tracked apart because a job's Admitted
	// event can reach the stream after its Completed event: the release
	// and completion taps run on different nodes' event goroutines.
	decided, finished atomic.Int64
	done              chan struct{}

	// For the final accounting check, over the deployment's life: submitted
	// counts arrivals that reached a task effector, shed those whose push
	// then failed, admitted the WatchAdmitted events of submitted jobs, and
	// unresolved the jobs that never got a decision.
	submitted, shed, admitted, unresolved int64
}

// startDeployment deploys the cluster and opens its watch stream.
func startDeployment(w *liveWorkload, seed int64, tasks []*sched.Task) (*deployment, error) {
	c, err := cluster.Start(cluster.Options{
		Workload: spec.FromTasks("perfbench", w.procs, tasks),
		Config:   w.cfg,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	stream, err := c.Watch(core.WatchOptions{
		Kinds: []core.WatchKind{core.WatchAdmitted, core.WatchRejected, core.WatchCompleted, core.WatchDeadlineMiss},
		// Deep enough that a full ladder rung never overflows it; a drop
		// fails the run.
		Buffer: 1 << 16,
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("watch: %w", err)
	}
	s := &deployment{c: c, stream: stream, index: make(map[string]int32, len(tasks)), done: make(chan struct{})}
	for i, t := range tasks {
		s.ids = append(s.ids, t.ID)
		s.index[t.ID] = int32(i)
	}
	go s.watch()
	return s, nil
}

// watch records every job event until the stream closes.
func (s *deployment) watch() {
	defer close(s.done)
	for ev := range s.stream.Events() {
		recv := time.Now().UnixNano()
		ti, ok := s.index[ev.Task]
		if !ok {
			continue
		}
		s.mu.Lock()
		s.events = append(s.events, observed{kind: ev.Kind, key: jobKey{ti, ev.Job}, at: int64(ev.At), recv: recv})
		s.mu.Unlock()
		switch ev.Kind {
		case core.WatchAdmitted:
			s.decided.Add(1)
		case core.WatchCompleted:
			s.finished.Add(1)
		case core.WatchRejected:
			s.decided.Add(1)
			s.finished.Add(1)
		}
	}
}

// take returns the events received since the last call.
func (s *deployment) take() []observed {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.events
	s.events = nil
	return out
}

// close stops the cluster and waits for the watcher to exit.
func (s *deployment) close() {
	s.c.Close()
	<-s.done
}

// arrival is one scheduled submission: its offset from the phase start and
// the task it names.
type arrival struct {
	offset time.Duration
	task   int32
}

// poisson draws a Poisson arrival schedule at rate jobs/s over dur, each
// arrival naming a uniformly chosen task.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, ntasks int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, arrival{offset: t, task: int32(rng.Intn(ntasks))})
	}
}

// submission is one Submit call as the generator made it.
type submission struct {
	key  jobKey
	due  int64         // scheduled time (UnixNano)
	late time.Duration // how late the call started
	call time.Duration // the Submit call itself (traced runs only)
	sync bool          // resolved when Submit returned
	err  error
}

// phase is one open-loop window: its submissions, the events they produced,
// and the backlog left when the last submission was made.
type phase struct {
	subs    []submission
	events  []observed
	backlog int64
}

// drive submits the schedule open loop from one goroutine — each call at its
// due time however late the previous one returned — then waits for every
// accepted submission to resolve and collects the phase's events. With
// maxBacklog above zero it stops submitting once more jobs than that are
// outstanding, so an overloaded rate is abandoned before the backlog grows
// deep.
func (s *deployment) drive(arrs []arrival, trace bool, maxBacklog int64) phase {
	subs := make([]submission, 0, len(arrs))
	decided0, finished0 := s.decided.Load(), s.finished.Load()
	start := time.Now()
	ok := int64(0)
	for _, a := range arrs {
		if maxBacklog > 0 && ok-(s.finished.Load()-finished0) > maxBacklog {
			break
		}
		due := start.Add(a.offset)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		adm, err := s.c.Submit(s.ids[a.task])
		sub := submission{
			key:  jobKey{a.task, adm.Job},
			due:  due.UnixNano(),
			late: t0.Sub(due),
			sync: adm.Outcome != core.AdmissionPending,
			err:  err,
		}
		if trace {
			sub.call = time.Since(t0)
		}
		switch {
		case err == nil:
			ok++
		case adm.Job >= 0:
			// The arrival reached the task effector, which counts it, but
			// its push failed: no event will ever resolve it.
			s.shed++
		}
		if adm.Job >= 0 {
			s.submitted++
		}
		subs = append(subs, sub)
	}
	p := phase{subs: subs, backlog: ok - (s.finished.Load() - finished0)}
	deadline := time.Now().Add(drainTimeout)
	for (s.decided.Load()-decided0 < ok || s.finished.Load()-finished0 < ok) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	p.events = s.take()
	return p
}

// outcome is the evaluated result of one phase.
type outcome struct {
	submitted, errs, admitted, rejected, completed, missed int
	// unresolved jobs got no decision; lost jobs were admitted and never
	// completed; dupes are repeated events for one job, or a completion of
	// a rejected one.
	unresolved, lost, dupes int
	syncN                   int
	// Per-job samples in nanoseconds. admit and complete run from the due
	// time to the watcher's receipt; emit from the due time to the
	// binding's event stamp; lag from the stamp to receipt.
	admit, complete, late, call, emit, lag []float64
}

// failures counts jobs that failed a user: refused, late, lost or errored.
func (o *outcome) failures() int {
	return o.rejected + o.missed + o.errs + o.unresolved + o.lost
}

// evaluate joins a phase's submissions with its events.
func evaluate(p phase) outcome {
	var o outcome
	type jobState struct {
		sub                          int
		decided, admitted, completed bool
	}
	jobs := make(map[jobKey]*jobState, len(p.subs))
	for i, sub := range p.subs {
		o.submitted++
		o.late = append(o.late, float64(sub.late))
		if sub.err != nil {
			o.errs++
			continue
		}
		if sub.sync {
			o.syncN++
		}
		if sub.call > 0 {
			o.call = append(o.call, float64(sub.call))
		}
		jobs[sub.key] = &jobState{sub: i}
	}
	for _, ev := range p.events {
		js, ok := jobs[ev.key]
		if !ok {
			continue
		}
		due := p.subs[js.sub].due
		switch ev.kind {
		case core.WatchAdmitted, core.WatchRejected:
			if js.decided {
				o.dupes++
				continue
			}
			js.decided = true
			o.admit = append(o.admit, float64(ev.recv-due))
			o.emit = append(o.emit, float64(ev.at-due))
			o.lag = append(o.lag, float64(ev.recv-ev.at))
			if ev.kind == core.WatchAdmitted {
				js.admitted = true
				o.admitted++
			} else {
				o.rejected++
			}
		case core.WatchCompleted:
			if js.completed {
				o.dupes++
				continue
			}
			js.completed = true
			o.completed++
			o.complete = append(o.complete, float64(ev.recv-due))
		case core.WatchDeadlineMiss:
			o.missed++
		}
	}
	for _, js := range jobs {
		switch {
		case !js.decided:
			o.unresolved++
		case js.admitted && !js.completed:
			o.lost++
		case js.completed && !js.admitted:
			o.dupes++
		}
	}
	return o
}

// setupCost is the time one set-up took, with its cluster-layer spans.
type setupCost struct {
	total, start time.Duration
	reconfigs    []time.Duration
}

// setUp deploys a cluster, runs the set-up reconfiguration round trip and
// warms it up: every task is submitted once (filling per-task caches and
// the connections every later job uses) and the run waits for those jobs.
func setUp(w *liveWorkload, seed int64, tasks []*sched.Task) (*deployment, setupCost, error) {
	var cost setupCost
	// Start every deployment from a collected heap, so the previous
	// cluster's garbage is not charged to this one.
	runtime.GC()
	t0 := time.Now()
	s, err := startDeployment(w, seed, tasks)
	if err != nil {
		return nil, cost, err
	}
	cost.start = time.Since(t0)
	if w.reconfigVia != nil {
		for _, to := range []core.Config{*w.reconfigVia, w.cfg} {
			r0 := time.Now()
			if _, err := s.c.Reconfigure(to); err != nil {
				s.close()
				return nil, cost, fmt.Errorf("reconfigure to %s: %w", to, err)
			}
			cost.reconfigs = append(cost.reconfigs, time.Since(r0))
		}
	}
	warm := make([]arrival, len(tasks))
	for i := range warm {
		warm[i].task = int32(i)
	}
	// Warm-up jobs may miss their deadline (the first ones pay for lazy
	// set-up); any other failure aborts the run.
	o := evaluate(s.drive(warm, false, 0))
	if bad := o.failures() - o.missed + o.dupes; bad > 0 {
		s.close()
		return nil, cost, fmt.Errorf("warm-up: %d of %d jobs failed", bad, o.submitted)
	}
	s.admitted += int64(o.admitted)
	cost.total = time.Since(t0)
	return s, cost, nil
}

// audit checks the cluster's own accounting against what the benchmark
// submitted and observed, and the admission ledger's invariants.
func (s *deployment) audit() error {
	var errs []error
	snap := s.c.Snapshot()
	if snap.Arrived != s.submitted {
		errs = append(errs, fmt.Errorf("binding counted %d arrivals, benchmark submitted %d", snap.Arrived, s.submitted))
	}
	if snap.Released != s.admitted {
		errs = append(errs, fmt.Errorf("binding released %d jobs, watch reported %d admissions", snap.Released, s.admitted))
	}
	if snap.Released+snap.Skipped+s.shed+s.unresolved != snap.Arrived {
		errs = append(errs, fmt.Errorf("released %d + skipped %d + shed %d + unresolved %d != arrived %d", snap.Released, snap.Skipped, s.shed, s.unresolved, snap.Arrived))
	}
	if snap.Completed != snap.Released {
		errs = append(errs, fmt.Errorf("completed %d != released %d (admitted jobs lost)", snap.Completed, snap.Released))
	}
	if d := s.stream.Dropped(); d > 0 {
		errs = append(errs, fmt.Errorf("watch stream dropped %d events", d))
	}
	ac, err := s.c.AC()
	if err != nil {
		errs = append(errs, err)
	} else if err := ac.AuditLedger(); err != nil {
		errs = append(errs, fmt.Errorf("ledger audit: %w", err))
	}
	return errors.Join(errs...)
}
