// Command perfbench is the repository's benchmark. It runs one named
// workload against the middleware's public binding surface — an in-process
// live cluster (cluster.Start, Submit, Watch, Reconfigure) or the simulation
// binding (core.NewSimSystem, Run) — checks every run for correctness, and
// prints its metrics as one JSON object on the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 it prints the end-to-end metrics listed in BENCHMARK.json;
// with -trace 1 it prints the per-layer metrics instead, measured by timing
// the benchmark's own calls into each layer and by reading the counters the
// layers already expose. A correctness failure prints "correct": false and
// exits with status 1.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload live-perjob --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one printed read-out.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output document.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems explain a false Correct; printed to standard error.
	problems []string
}

// set records a metric. Non-finite values (an empty distribution) are
// recorded as 0 and reported as a problem, since JSON cannot carry them.
func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("metric %s has no value", name))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect.
func (r *result) fail(problem string) {
	r.Correct = false
	r.problems = append(r.problems, problem)
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if w.live != nil {
		res, err = runLive(w.live, *seed, budget, *trace == 1)
	} else {
		res, err = runSim(w.sim, *seed, budget, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		checkNames(res, perLayer)
	} else {
		checkNames(res, endToEnd)
	}
	report(os.Stdout, res)
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
		}
		os.Exit(1)
	}
}

// report prints one "name value unit" line per metric, then the JSON result
// as the last line.
func report(out *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(doc))
}
