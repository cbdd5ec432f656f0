package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints, on every workload. On the
// live workloads latency runs on the wall clock from each job's due time;
// on the simulation it is the binding's virtual response time.
var endToEnd = []metricDef{
	{"complete_p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"allocs_per_job", "count"},
	{"heap_peak_mb", "MB"},
	{"accepted_util_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run prints, on every workload. The
// *_tail_* metrics are taken at the highest percentile the traced window's
// samples support (at least ten beyond it), which bench.tail_pct reports
// next to the sample count in bench.samples.
var perLayer = []metricDef{
	{"cluster.submit_us_p50", "us"},
	{"cluster.submit_tail_us", "us"},
	{"cluster.emit_ms_p50", "ms"},
	{"cluster.watch_lag_us_p50", "us"},
	{"cluster.start_ms", "ms"},
	{"cluster.reconfigure_ms", "ms"},
	{"cluster.admit_p50_ms", "ms"},
	{"cluster.admit_tail_ms", "ms"},
	{"cluster.complete_tail_ms", "ms"},
	{"cluster.max_ok_rate", "1/s"},
	{"live.te.op1_hold_push_us", "us"},
	{"live.ac.decision_us", "us"},
	{"live.ac.op8_reset_us", "us"},
	{"live.ir.op7_report_us", "us"},
	{"live.subtask.op5_release_us", "us"},
	{"live.te.sync_ratio", "ratio"},
	{"live.te.overloaded", "count"},
	{"core.op4_test_us", "us"},
	{"core.op3_location_us", "us"},
	{"core.tests_per_job", "count"},
	{"core.reject_ratio", "ratio"},
	{"core.idle_resets_per_job", "count"},
	{"core.expiries_per_job", "count"},
	{"eventchan.pushes_per_job", "count"},
	{"eventchan.forwarded_per_job", "count"},
	{"eventchan.batch_factor", "ratio"},
	{"eventchan.dropped", "count"},
	{"orb.frames_per_job", "count"},
	{"orb.bytes_per_job", "B"},
	{"orb.frames_per_flush", "ratio"},
	{"orb.overloads", "count"},
	{"orb.rtt_us_p50", "us"},
	{"sched.test_and_add_ns_p50", "ns"},
	{"sched.accept_ratio", "ratio"},
	{"des.events_per_job", "count"},
	{"des.events_per_s", "1/s"},
	{"des.jobs_per_s", "1/s"},
	{"configengine.plan_ms", "ms"},
	{"runtime.gc_per_1k_jobs", "count"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"bench.gen_late_tail_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.tail_pct", "%"},
	{"bench.unexplained_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.fail_ratio", "ratio"},
}

// zeroLayers records 0 for every per-layer metric whose name starts with
// one of the prefixes: layers the workload never calls did no work.
func zeroLayers(res *result, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				res.set(m.name, m.unit, 0)
			}
		}
	}
}

// checkNames fails the run unless it printed exactly the expected metrics,
// each with its declared unit.
func checkNames(res *result, want []metricDef) {
	var problems []string
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.name)
		case got.Unit != m.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", m.name, got.Unit, m.unit))
		}
	}
	if len(res.Metrics) != len(want) {
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		problems = append(problems, fmt.Sprintf("printed %d metrics, want %d: %v", len(names), len(want), names))
	}
	for _, p := range problems {
		res.fail(p)
	}
}
