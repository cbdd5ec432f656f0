package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/configengine"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/eventchan"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/spec"
)

// opSum is a core.OpStats reading as a count and a total. OpStats exposes
// the count and the mean, each read under its lock; the benchmark reads
// them after a window drains, when the two agree.
type opSum struct {
	n   int64
	sum time.Duration
}

func opOf(s *core.OpStats) opSum {
	n := s.Count()
	return opSum{n: n, sum: s.Mean() * time.Duration(n)}
}

func (a opSum) add(b opSum) opSum { return opSum{a.n + b.n, a.sum + b.sum} }
func (a opSum) sub(b opSum) opSum { return opSum{a.n - b.n, a.sum - b.sum} }

// meanUs returns the mean duration in microseconds, 0 when nothing was timed.
func (a opSum) meanUs() float64 { return ratio(float64(a.sum)/1e3, float64(a.n)) }

// perJobUs returns the total time in microseconds per job.
func (a opSum) perJobUs(jobs int) float64 { return ratio(float64(a.sum)/1e3, float64(jobs)) }

// ratio divides, returning 0 for an empty denominator (a layer that did no
// work on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ctrlCounts are the admission controller's counters, read atomically: the
// controller updates them concurrently with atomic adds.
type ctrlCounts struct {
	tests, accepts, rejects, idleResets, expiries int64
}

func readCtrl(st *core.ControllerStats) ctrlCounts {
	return ctrlCounts{
		tests:      atomic.LoadInt64(&st.Tests),
		accepts:    atomic.LoadInt64(&st.Accepts),
		rejects:    atomic.LoadInt64(&st.Rejects),
		idleResets: atomic.LoadInt64(&st.IdleResets),
		expiries:   atomic.LoadInt64(&st.Expiries),
	}
}

func (a ctrlCounts) sub(b ctrlCounts) ctrlCounts {
	return ctrlCounts{a.tests - b.tests, a.accepts - b.accepts, a.rejects - b.rejects, a.idleResets - b.idleResets, a.expiries - b.expiries}
}

// liveLayers is one reading of every counter the live layers expose.
type liveLayers struct {
	holdPush, decision, resetApply, report, release opSum
	test, location                                  opSum
	overloaded                                      int64
	ctrl                                            ctrlCounts
	events                                          eventchan.PlaneStats
	orb                                             orb.TransportStats
}

// readLive reads the live layers' counters through the cluster's component
// accessors and their snapshot methods.
func readLive(c *cluster.Cluster) (liveLayers, error) {
	var l liveLayers
	for i := range c.Apps {
		te, err := c.TE(i)
		if err != nil {
			return l, err
		}
		l.holdPush = l.holdPush.add(opOf(&te.HoldPush))
		l.overloaded += te.StatsSnapshot().Overloaded
		ir, err := c.IR(i)
		if err != nil {
			return l, err
		}
		l.report = l.report.add(opOf(&ir.ReportPush))
	}
	for _, st := range c.Subtasks() {
		l.release = l.release.add(opOf(&st.ReleaseHandle))
	}
	ac, err := c.AC()
	if err != nil {
		return l, err
	}
	l.decision = opOf(&ac.DecisionDelay)
	l.resetApply = opOf(&ac.ResetApply)
	ctrl := ac.Controller()
	if tm := ctrl.Timing(); tm != nil {
		l.test = opOf(&tm.Test)
		l.location = opOf(&tm.Location)
	}
	l.ctrl = readCtrl(&ctrl.Stats)
	for _, ts := range c.TransportStats() {
		e, o := ts.Events, ts.ORB
		l.events.Pushed += e.Pushed
		l.events.Forwarded += e.Forwarded
		l.events.ForwardBatches += e.ForwardBatches
		l.events.ForwardDropped += e.ForwardDropped
		l.events.ForwardErrors += e.ForwardErrors
		l.events.SubscriberDropped += e.SubscriberDropped
		l.orb.FramesSent += o.FramesSent
		l.orb.Flushes += o.Flushes
		l.orb.BytesSent += o.BytesSent
		l.orb.Overloads += o.Overloads
	}
	return l, nil
}

// sub returns the counter deltas between two readings.
func (a liveLayers) sub(b liveLayers) liveLayers {
	return liveLayers{
		holdPush:   a.holdPush.sub(b.holdPush),
		decision:   a.decision.sub(b.decision),
		resetApply: a.resetApply.sub(b.resetApply),
		report:     a.report.sub(b.report),
		release:    a.release.sub(b.release),
		test:       a.test.sub(b.test),
		location:   a.location.sub(b.location),
		overloaded: a.overloaded - b.overloaded,
		ctrl:       a.ctrl.sub(b.ctrl),
		events: eventchan.PlaneStats{
			Pushed:            a.events.Pushed - b.events.Pushed,
			Forwarded:         a.events.Forwarded - b.events.Forwarded,
			ForwardBatches:    a.events.ForwardBatches - b.events.ForwardBatches,
			ForwardDropped:    a.events.ForwardDropped - b.events.ForwardDropped,
			ForwardErrors:     a.events.ForwardErrors - b.events.ForwardErrors,
			SubscriberDropped: a.events.SubscriberDropped - b.events.SubscriberDropped,
		},
		orb: orb.TransportStats{
			FramesSent: a.orb.FramesSent - b.orb.FramesSent,
			Flushes:    a.orb.Flushes - b.orb.Flushes,
			BytesSent:  a.orb.BytesSent - b.orb.BytesSent,
			Overloads:  a.orb.Overloads - b.orb.Overloads,
		},
	}
}

// probeORB times two-way invocations between two standalone ORBs on
// loopback, carrying payloads of the given size, and returns the median
// round trip in microseconds.
func probeORB(size int) (float64, error) {
	server := orb.New("perfbench-probe-server")
	defer server.Shutdown()
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	server.RegisterServant("echo", func(_ string, arg []byte) ([]byte, error) { return arg, nil })
	client := orb.New("perfbench-probe-client")
	defer client.Shutdown()
	payload := make([]byte, size)
	const warm, n = 200, 2000
	rtts := make([]float64, 0, n)
	for i := 0; i < warm+n; i++ {
		t0 := time.Now()
		if _, err := client.Invoke(context.Background(), addr.String(), "echo", "ping", payload); err != nil {
			return 0, fmt.Errorf("orb probe: %w", err)
		}
		if i >= warm {
			rtts = append(rtts, float64(time.Since(t0)))
		}
	}
	return quantile(sorted(rtts), 0.5) / 1e3, nil
}

// ledgerProbe is the result of replaying a workload's arrivals into a
// standalone admission ledger.
type ledgerProbe struct {
	p50ns  float64
	accept float64
}

// expiry is an admitted job's ledger entry and the virtual time it ends.
type expiry struct {
	at  time.Duration
	ref sched.JobRef
}

// probeLedger replays n arrivals of the tasks, at the given aggregate
// Poisson rate in virtual time, into a standalone single-shard
// ShardedLedger: each arrival is one TestAndAdd on its home placement, and
// admitted jobs expire at their deadline. Tasks are drawn in proportion to
// their arrival rates. It returns the median TestAndAdd time and the share
// of arrivals admitted.
func probeLedger(tasks []*sched.Task, procs int, seed int64, n int) (ledgerProbe, error) {
	weights := make([]float64, len(tasks))
	var total float64
	for i, t := range tasks {
		gap := t.Period
		if t.Kind == sched.Aperiodic {
			gap = t.MeanInterarrival
		}
		total += 1 / gap.Seconds()
		weights[i] = total
	}
	placements := make([][]sched.PlacedStage, len(tasks))
	for i, t := range tasks {
		for j, st := range t.Subtasks {
			placements[i] = append(placements[i], sched.PlacedStage{Stage: j, Proc: st.Processor, Util: t.StageUtil(j)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sl := sched.NewShardedLedger(procs, 1)
	var pending []expiry // sorted by at
	times := make([]float64, 0, n)
	var now time.Duration
	accepted := 0
	for i := 0; i < n; i++ {
		now += time.Duration(rng.ExpFloat64() / total * float64(time.Second))
		for len(pending) > 0 && pending[0].at <= now {
			sl.ExpireJob(pending[0].ref)
			pending = pending[1:]
		}
		ti := sort.SearchFloat64s(weights, rng.Float64()*total)
		if ti >= len(tasks) {
			ti = len(tasks) - 1
		}
		t := tasks[ti]
		ref := sched.JobRef{Task: t.ID, Job: int64(i)}
		t0 := time.Now()
		ok, err := sl.TestAndAdd(ref, sched.Aperiodic, placements[ti], false, now+t.Deadline)
		times = append(times, float64(time.Since(t0)))
		if err != nil {
			return ledgerProbe{}, fmt.Errorf("ledger probe: %w", err)
		}
		if ok {
			accepted++
			e := expiry{at: now + t.Deadline, ref: ref}
			k := sort.Search(len(pending), func(j int) bool { return pending[j].at > e.at })
			pending = append(pending, expiry{})
			copy(pending[k+1:], pending[k:])
			pending[k] = e
		}
	}
	if err := sl.CheckInvariants(); err != nil {
		return ledgerProbe{}, fmt.Errorf("ledger probe audit: %w", err)
	}
	return ledgerProbe{p50ns: quantile(sorted(times), 0.5), accept: float64(accepted) / float64(n)}, nil
}

// probePlan times configengine.GeneratePlan for the workload's tasks under
// cfg, repeated reps times, and returns the median in milliseconds.
func probePlan(tasks []*sched.Task, procs int, cfg core.Config, reps int) (float64, error) {
	w := spec.FromTasks("perfbench", procs, tasks)
	manager := deploy.Node{Name: "manager", Address: "127.0.0.1:1", Processor: -1}
	apps := make([]deploy.Node, procs)
	for i := range apps {
		apps[i] = deploy.Node{Name: fmt.Sprintf("app%d", i), Address: fmt.Sprintf("127.0.0.1:%d", 2+i), Processor: i}
	}
	var times []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := configengine.GeneratePlan("perfbench", w, cfg, manager, apps); err != nil {
			return 0, fmt.Errorf("plan probe: %w", err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	return ms(median(times)), nil
}
