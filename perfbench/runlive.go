package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/sched"
)

// ladderSteps is the number of rates the capacity ladder offers.
const ladderSteps = 8

// clusterRepeats is how many clusters a run deploys. An untraced run
// measures one equal share of its time on each and reports medians across
// them: a fresh deployment differs from the last in ways that move latency
// (which goroutine each component's handlers land on, where the garbage
// collector finds the heap), and the median of several stays put where a
// single deployment would not. setup_s is the median of their set-ups.
const clusterRepeats = 10

// runLive runs a live workload. An untraced run deploys clusterRepeats
// clusters in turn, measuring the nominal rate on each. A traced run
// deploys as many, keeps the last, and splits its time into an untraced
// window, a traced window with the layer counters read around it, and the
// capacity ladder, followed by the layer probes.
func runLive(w *liveWorkload, seed int64, budget time.Duration, trace bool) (*result, error) {
	res := &result{Correct: true}
	tasks := w.taskSet(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if trace {
		return res, traceRun(res, w, tasks, seed, rng, budget)
	}
	var setups, p50, cpu, allocs, heap []float64
	var admitted, rejected int
	for i := 0; i < clusterRepeats; i++ {
		s, cost, err := setUp(w, seed, tasks)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, cost.total.Seconds())
		o, use := s.measure(rng, w.nominal, budget/clusterRepeats, false)
		checkPhase(res, "nominal", o)
		if err := s.audit(); err != nil {
			res.fail(err.Error())
		}
		s.close()
		res.Attempted += int64(o.submitted)
		res.Failed += int64(o.failures())
		admitted += o.admitted
		rejected += o.rejected
		jobs := float64(o.submitted - o.errs)
		p50 = append(p50, ms(quantile(sorted(o.complete), 0.5)))
		cpu = append(cpu, ms(ratio(float64(use.cpu), jobs)))
		allocs = append(allocs, ratio(float64(use.mallocs), jobs))
		heap = append(heap, float64(use.heapPeak)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "per cluster: complete p50 %.2f ms, cpu %.2f ms/job, heap %.1f MB\n", p50, cpu, heap)
	res.set("complete_p50_ms", "ms", median(p50))
	res.set("cpu_ms_per_job", "ms", median(cpu))
	res.set("allocs_per_job", "count", median(allocs))
	res.set("heap_peak_mb", "MB", median(heap))
	// Every job of a live workload carries the same synthetic utilization,
	// so the accepted utilization ratio is the admitted share of decisions.
	res.set("accepted_util_ratio", "ratio", ratio(float64(admitted), float64(admitted+rejected)))
	res.set("setup_s", "s", median(setups))
	return res, nil
}

// traceRun is the traced form of runLive.
func traceRun(res *result, w *liveWorkload, tasks []*sched.Task, seed int64, rng *rand.Rand, budget time.Duration) error {
	var costs []setupCost
	var s *deployment
	for i := 0; i < clusterRepeats; i++ {
		dep, cost, err := setUp(w, seed, tasks)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		costs = append(costs, cost)
		if i < clusterRepeats-1 {
			dep.close()
		} else {
			s = dep
		}
	}
	defer s.close()
	o, use := s.measure(rng, w.nominal, budget/3, false)
	checkPhase(res, "untraced", o)
	res.Attempted, res.Failed = int64(o.submitted), int64(o.failures())
	if err := traceLive(res, s, w, tasks, seed, rng, budget/3, o, use, costs); err != nil {
		return err
	}
	if err := s.audit(); err != nil {
		res.fail(err.Error())
	}
	return nil
}

// measure drives one open-loop window at rate and returns its outcome and
// process cost.
func (s *deployment) measure(rng *rand.Rand, rate float64, window time.Duration, trace bool) (outcome, usage) {
	m := startMeter()
	p := s.drive(poisson(rng, rate, window, len(s.ids)), trace, 0)
	use := m.finish()
	o := evaluate(p)
	s.admitted += int64(o.admitted)
	return o, use
}

// checkPhase fails the run on any lost, duplicated or unresolved job.
func checkPhase(res *result, name string, o outcome) {
	if o.lost > 0 {
		res.fail(fmt.Sprintf("%s: %d admitted jobs never completed", name, o.lost))
	}
	if o.unresolved > 0 {
		res.fail(fmt.Sprintf("%s: %d submitted jobs got no admission decision", name, o.unresolved))
	}
	if o.dupes > 0 {
		res.fail(fmt.Sprintf("%s: %d duplicate job events", name, o.dupes))
	}
}

// ladder searches for the highest rate the cluster sustains. Starting from
// the nominal rate, which the nominal window already tried, it doubles the
// rate until one fails, then bisects (in log space) between the last rate
// that passed and the first that failed, ladderSteps rungs in all, each
// offered for rung. A rate passes when completion latency at the highest
// percentile the rung's samples support stays under the deadline, the
// failure ratio is at most 1% and the backlog does not grow: no more jobs
// outstanding when the rung ends than arrive within one deadline. A rung
// whose backlog reaches twice that is abandoned early.
//
// Past capacity the cluster may leave a job with no decision at all (its
// hold expires before the late decision arrives); such jobs count as
// failures of the rung, while an admitted job that never completes fails
// the run.
func ladder(s *deployment, w *liveWorkload, rng *rand.Rand, nominal outcome, rung time.Duration) (float64, error) {
	limit := func(rate float64) int64 { return int64(rate*w.deadline.Seconds()) + 1 }
	tail := func(o outcome) float64 {
		q := tailQuantile(len(o.complete))
		if q == 0 {
			q = 1 // too few samples for any percentile: take the worst
		}
		return quantile(sorted(o.complete), q)
	}
	passes := func(rate float64, o outcome, backlog int64) bool {
		fail := ratio(float64(o.failures()), float64(o.submitted))
		return tail(o) < float64(w.deadline) && fail <= 0.01 && backlog <= limit(rate)
	}
	if !passes(w.nominal, nominal, 0) {
		return 0, nil
	}
	lo, hi := w.nominal, 0.0
	for i := 0; i < ladderSteps; i++ {
		rate := 2 * lo
		if hi > 0 {
			rate = math.Sqrt(lo * hi)
		}
		p := s.drive(poisson(rng, rate, rung, len(s.ids)), false, 2*limit(rate))
		o := evaluate(p)
		s.admitted += int64(o.admitted)
		s.unresolved += int64(o.unresolved)
		if o.lost > 0 || o.dupes > 0 {
			return 0, fmt.Errorf("ladder rung %.0f/s: %d admitted jobs never completed, %d duplicate events", rate, o.lost, o.dupes)
		}
		ok := passes(rate, o, p.backlog)
		fmt.Fprintf(os.Stderr, "ladder %.0f/s: %d jobs, complete p%g %.1f ms, %d failed, backlog %d, pass %v\n",
			rate, o.submitted, 100*tailQuantile(len(o.complete)), ms(tail(o)), o.failures(), p.backlog, ok)
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	return lo, nil
}
