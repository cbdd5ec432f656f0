package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !namePattern.MatchString(name) {
			t.Errorf("metric name %q has characters or a length outside the rules", name)
		}
		if !unitPattern.MatchString(unit) {
			t.Errorf("metric %s: unit %q has characters or a length outside the rules", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better is %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %s declared twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per-layer %d: BENCHMARK.json has %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}
