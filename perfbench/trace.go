package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sched"
)

// The layer probes' sizes: arrivals replayed into the ledger and plan
// generations timed.
const (
	ledgerProbeArrivals = 20000
	planProbeReps       = 5
)

// traceLive runs the traced window of a live workload and then the
// capacity ladder, and records every per-layer metric. The untraced window
// before it (outcome base, cost untraced) is the baseline for the tracing
// overhead; the traced window times each Submit call and reads the layers'
// counters before and after.
func traceLive(res *result, s *deployment, w *liveWorkload, tasks []*sched.Task, seed int64, rng *rand.Rand, window time.Duration, base outcome, untraced usage, costs []setupCost) error {
	before, err := readLive(s.c)
	if err != nil {
		return err
	}
	o, use := s.measure(rng, w.nominal, window, true)
	after, err := readLive(s.c)
	if err != nil {
		return err
	}
	checkPhase(res, "traced", o)
	res.Attempted += int64(o.submitted)
	res.Failed += int64(o.failures())
	d := after.sub(before)
	jobs := o.submitted - o.errs

	maxOK, err := ladder(s, w, rng, o, window/ladderSteps)
	if err != nil {
		return err
	}
	meanFrame := int(ratio(float64(d.orb.BytesSent), float64(d.orb.FramesSent)))
	rtt, err := probeORB(meanFrame)
	if err != nil {
		return err
	}
	lp, err := probeLedger(tasks, w.procs, seed, ledgerProbeArrivals)
	if err != nil {
		return err
	}
	plan, err := probePlan(tasks, w.procs, w.cfg, planProbeReps)
	if err != nil {
		return err
	}

	admit, lag, call, complete := sorted(o.admit), sorted(o.lag), sorted(o.call), sorted(o.complete)
	tail := tailQuantile(min(len(admit), len(call), len(complete)))
	var starts, reconfigs []float64
	for _, c := range costs {
		starts = append(starts, float64(c.start))
		for _, r := range c.reconfigs {
			reconfigs = append(reconfigs, float64(r))
		}
	}
	perJob := func(n int64) float64 { return ratio(float64(n), float64(jobs)) }

	res.set("cluster.submit_us_p50", "us", quantile(call, 0.5)/1e3)
	res.set("cluster.submit_tail_us", "us", quantile(call, tail)/1e3)
	res.set("cluster.emit_ms_p50", "ms", ms(quantile(sorted(o.emit), 0.5)))
	res.set("cluster.watch_lag_us_p50", "us", quantile(lag, 0.5)/1e3)
	res.set("cluster.start_ms", "ms", ms(median(starts)))
	res.set("cluster.reconfigure_ms", "ms", ms(orZero(median(reconfigs))))
	res.set("cluster.admit_p50_ms", "ms", ms(quantile(admit, 0.5)))
	res.set("cluster.admit_tail_ms", "ms", ms(quantile(admit, tail)))
	res.set("cluster.complete_tail_ms", "ms", ms(quantile(complete, tail)))
	res.set("cluster.max_ok_rate", "1/s", maxOK)

	res.set("live.te.op1_hold_push_us", "us", d.holdPush.perJobUs(jobs))
	res.set("live.ac.decision_us", "us", d.decision.perJobUs(jobs))
	res.set("live.ac.op8_reset_us", "us", d.resetApply.perJobUs(jobs))
	res.set("live.ir.op7_report_us", "us", d.report.perJobUs(jobs))
	res.set("live.subtask.op5_release_us", "us", d.release.perJobUs(jobs))
	res.set("live.te.sync_ratio", "ratio", ratio(float64(o.syncN), float64(jobs)))
	res.set("live.te.overloaded", "count", float64(d.overloaded))

	setCore(res, d.test, d.location, d.ctrl, jobs)

	res.set("eventchan.pushes_per_job", "count", perJob(d.events.Pushed))
	res.set("eventchan.forwarded_per_job", "count", perJob(d.events.Forwarded))
	res.set("eventchan.batch_factor", "ratio", ratio(float64(d.events.Forwarded), float64(d.events.ForwardBatches)))
	res.set("eventchan.dropped", "count", float64(d.events.ForwardDropped+d.events.SubscriberDropped))

	res.set("orb.frames_per_job", "count", perJob(d.orb.FramesSent))
	res.set("orb.bytes_per_job", "B", perJob(d.orb.BytesSent))
	res.set("orb.frames_per_flush", "ratio", ratio(float64(d.orb.FramesSent), float64(d.orb.Flushes)))
	res.set("orb.overloads", "count", float64(d.orb.Overloads))
	res.set("orb.rtt_us_p50", "us", rtt)

	res.set("sched.test_and_add_ns_p50", "ns", lp.p50ns)
	res.set("sched.accept_ratio", "ratio", lp.accept)
	zeroLayers(res, "des.")
	res.set("configengine.plan_ms", "ms", plan)

	setRuntime(res, use, jobs)
	lateP50 := quantile(sorted(o.late), 0.5)
	// The Figure 7 AC composition 2+4+2+5 in nanoseconds, each operation
	// weighted by how often it ran per job (operation 2, the one-way
	// communication delay, is half the probed round trip); operation 1 runs
	// inside the timed Submit call.
	comp := rtt*1e3*perJob(d.decision.n) + float64(d.test.sum+d.release.sum)/float64(jobs)
	explained := lateP50 + quantile(call, 0.5) + comp + quantile(lag, 0.5)
	res.set("bench.gen_late_tail_ms", "ms", ms(quantile(sorted(o.late), tail)))
	res.set("bench.samples", "count", float64(len(admit)))
	res.set("bench.tail_pct", "%", 100*tail)
	res.set("bench.unexplained_ms", "ms", ms(quantile(admit, 0.5)-explained))
	cpuUntraced := ratio(float64(untraced.cpu), float64(base.submitted-base.errs))
	res.set("bench.trace_overhead_pct", "%", 100*(ratio(float64(use.cpu), float64(jobs))/cpuUntraced-1))
	res.set("bench.fail_ratio", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	return nil
}

// setCore records the admission controller's per-layer metrics.
func setCore(res *result, test, location opSum, c ctrlCounts, jobs int) {
	res.set("core.op4_test_us", "us", test.meanUs())
	res.set("core.op3_location_us", "us", location.meanUs())
	res.set("core.tests_per_job", "count", ratio(float64(c.tests), float64(jobs)))
	res.set("core.reject_ratio", "ratio", ratio(float64(c.rejects), float64(c.accepts+c.rejects)))
	res.set("core.idle_resets_per_job", "count", ratio(float64(c.idleResets), float64(jobs)))
	res.set("core.expiries_per_job", "count", ratio(float64(c.expiries), float64(jobs)))
}

// setRuntime records the Go runtime's per-job costs of a window.
func setRuntime(res *result, use usage, jobs int) {
	res.set("runtime.gc_per_1k_jobs", "count", 1000*ratio(float64(use.gcs), float64(jobs)))
	res.set("runtime.alloc_bytes_per_job", "B", ratio(float64(use.allocBytes), float64(jobs)))
}

// orZero maps the NaN median of an empty sample to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
