package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// simOutcome is what one simulation run produced. The fields other than the
// host-time costs are a pure function of the seed: every repeat in a run
// must reproduce them exactly, and seeds listed in golden.json must match
// the recorded values.
type simOutcome struct {
	Arrived   int64   `json:"arrived"`
	Released  int64   `json:"released"`
	Skipped   int64   `json:"skipped"`
	Completed int64   `json:"completed"`
	Missed    int64   `json:"missed"`
	Ratio     float64 `json:"accepted_util_ratio"`
	// P50Ms is the median virtual response time of completed jobs.
	P50Ms float64 `json:"complete_p50_ms"`

	setup, run time.Duration
	fired      int64
	cost       usage
	tests      ctrlCounts
	op4, op3   opSum
	dropped    int64
}

// simOnce generates the task set, builds the simulation binding, and runs
// it with one watch subscription reading every completion. Traced runs also
// time the controller's admission tests and placements.
func simOnce(w *simWorkload, seed int64, trace bool) (simOutcome, error) {
	var out simOutcome
	// Start every repeat from a collected heap, so one repeat's garbage is
	// not charged to the next.
	runtime.GC()
	t0 := time.Now()
	tasks, err := w.taskSet(seed)
	if err != nil {
		return out, err
	}
	sys, err := core.NewSimSystem(core.SimConfig{
		Strategies: w.cfg,
		NumProcs:   w.procs,
		Horizon:    w.horizon,
		Seed:       seed,
	}, tasks)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	if trace {
		sys.Controller().EnableTiming()
	}
	stream, err := sys.Watch(core.WatchOptions{
		Kinds: []core.WatchKind{core.WatchCompleted},
		// Sized for a whole run's completions, so the reader never drops.
		Buffer: 1 << 18,
	})
	if err != nil {
		return out, err
	}
	resp := make(chan []float64)
	go func() {
		var rs []float64
		for ev := range stream.Events() {
			rs = append(rs, float64(ev.Response))
		}
		resp <- rs
	}()

	m := startMeter()
	fired0 := sys.Engine().Fired()
	r0 := time.Now()
	met := sys.Run()
	out.run = time.Since(r0)
	out.fired = sys.Engine().Fired() - fired0
	out.cost = m.finish()
	if err := sys.Stop(); err != nil {
		return out, err
	}
	rs := <-resp
	out.dropped = stream.Dropped()

	tot := met.Total
	out.Arrived, out.Released, out.Skipped = tot.Arrived, tot.Released, tot.Skipped
	out.Completed, out.Missed = tot.Completed, tot.Missed
	out.Ratio = met.AcceptedUtilizationRatio()
	out.P50Ms = ms(quantile(sorted(rs), 0.5))
	out.tests = readCtrl(&sys.Controller().Stats)
	if tm := sys.Controller().Timing(); tm != nil {
		out.op4, out.op3 = opOf(&tm.Test), opOf(&tm.Location)
	}
	if int64(len(rs)) != out.Completed && out.dropped == 0 {
		return out, fmt.Errorf("watch saw %d completions, binding counted %d", len(rs), out.Completed)
	}
	return out, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// same reports whether two runs produced the same seed-determined results.
func (a simOutcome) same(b simOutcome) bool {
	return a.Arrived == b.Arrived && a.Released == b.Released && a.Skipped == b.Skipped &&
		a.Completed == b.Completed && a.Missed == b.Missed && a.Ratio == b.Ratio && a.P50Ms == b.P50Ms
}

// goldenJSON records sim-overload's results for fixed seeds, keyed by seed
// (regenerate with go test -run TestGolden -update).
//
//go:embed golden.json
var goldenJSON []byte

// loadGolden decodes the recorded results.
func loadGolden() (map[string]simOutcome, error) {
	var g map[string]simOutcome
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// runSim repeats the simulation run until the budget is spent (at least
// three times), checks every repeat against the first and against the
// recorded results, and reports medians across repeats. A traced run
// alternates untraced and traced repeats to measure the tracing overhead.
func runSim(w *simWorkload, seed int64, budget time.Duration, trace bool) (*result, error) {
	res := &result{Correct: true}
	golden, err := loadGolden()
	if err != nil {
		return nil, fmt.Errorf("load recorded results: %w", err)
	}
	var runs, traced []simOutcome
	start := time.Now()
	for i := 0; len(runs) < 3 || time.Since(start) < budget; i++ {
		tr := trace && i%2 == 1
		o, err := simOnce(w, seed, tr)
		if err != nil {
			return nil, err
		}
		if tr {
			traced = append(traced, o)
		} else {
			runs = append(runs, o)
		}
	}
	first := runs[0]
	for i, o := range append(runs[1:], traced...) {
		if !o.same(first) {
			res.fail(fmt.Sprintf("repeat %d differs from the first run: %+v vs %+v", i+2, o, first))
		}
	}
	if g, ok := golden[fmt.Sprint(seed)]; ok && !g.same(first) {
		res.fail(fmt.Sprintf("seed %d: results %+v differ from recorded %+v", seed, first, g))
	}
	// Every arrival is released or skipped, and every released job
	// completes within the run's drain window.
	lost := abs(first.Arrived-first.Released-first.Skipped) + abs(first.Released-first.Completed)
	if lost != 0 {
		res.fail(fmt.Sprintf("%d jobs unaccounted for", lost))
	}
	for _, o := range append(runs, traced...) {
		if o.dropped > 0 {
			res.fail(fmt.Sprintf("watch stream dropped %d events", o.dropped))
		}
	}
	res.Attempted = first.Arrived
	res.Failed = lost
	fmt.Fprintf(os.Stderr, "sim: %d repeats of %d arrivals, %d released, %d skipped, accepted utilization ratio %.4f\n",
		len(runs)+len(traced), first.Arrived, first.Released, first.Skipped, first.Ratio)

	perJob := func(runs []simOutcome, f func(o simOutcome) float64) float64 {
		var xs []float64
		for _, o := range runs {
			xs = append(xs, f(o)/float64(o.Arrived))
		}
		return median(xs)
	}
	if !trace {
		var setups, heap []float64
		for _, o := range runs {
			setups = append(setups, o.setup.Seconds())
			heap = append(heap, float64(o.cost.heapPeak)/(1<<20))
		}
		res.set("setup_s", "s", median(setups))
		res.set("heap_peak_mb", "MB", median(heap))
		res.set("complete_p50_ms", "ms", first.P50Ms)
		res.set("cpu_ms_per_job", "ms", perJob(runs, func(o simOutcome) float64 { return ms(float64(o.cost.cpu)) }))
		res.set("allocs_per_job", "count", perJob(runs, func(o simOutcome) float64 { return float64(o.cost.mallocs) }))
		res.set("accepted_util_ratio", "ratio", first.Ratio)
		return res, nil
	}
	tasks, err := w.taskSet(seed)
	if err != nil {
		return nil, err
	}
	return res, traceSim(res, w, tasks, seed, runs, traced)
}

// traceSim records the per-layer metrics of the simulation workload from
// the traced repeats (controller timing on) and the untraced ones. Layers
// the simulation does not use — the cluster, live components, event
// channel, ORB and configuration engine — did no work and read 0.
func traceSim(res *result, w *simWorkload, tasks []*sched.Task, seed int64, runs, traced []simOutcome) error {
	t := traced[len(traced)/2]
	jobs := int(t.Arrived)
	zeroLayers(res, "cluster.", "live.", "eventchan.", "orb.", "configengine.", "bench.gen_late", "bench.unexplained", "bench.tail")
	setCore(res, t.op4, t.op3, t.tests, jobs)
	lp, err := probeLedger(tasks, w.procs, seed, ledgerProbeArrivals)
	if err != nil {
		return err
	}
	res.set("sched.test_and_add_ns_p50", "ns", lp.p50ns)
	res.set("sched.accept_ratio", "ratio", lp.accept)
	perRun := func(rs []simOutcome, f func(o simOutcome) float64) float64 {
		var xs []float64
		for _, o := range rs {
			xs = append(xs, f(o))
		}
		return median(xs)
	}
	res.set("des.events_per_job", "count", ratio(float64(t.fired), float64(jobs)))
	res.set("des.events_per_s", "1/s", perRun(traced, func(o simOutcome) float64 { return float64(o.fired) / o.run.Seconds() }))
	res.set("des.jobs_per_s", "1/s", perRun(runs, func(o simOutcome) float64 { return float64(o.Arrived) / o.run.Seconds() }))
	setRuntime(res, t.cost, jobs)
	hostPerJob := func(o simOutcome) float64 { return o.run.Seconds() / float64(o.Arrived) }
	res.set("bench.samples", "count", float64(t.Completed))
	res.set("bench.trace_overhead_pct", "%", 100*(perRun(traced, hostPerJob)/perRun(runs, hostPerJob)-1))
	res.set("bench.fail_ratio", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	return nil
}
