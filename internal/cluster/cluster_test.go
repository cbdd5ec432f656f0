package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// miniWorkload is a small two-processor workload: a replicated two-stage
// periodic flow and a single-stage aperiodic alert. Durations are already
// compressed so tests run quickly at ExecScale 1.
func miniWorkload(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(`{
	  "name": "mini",
	  "processors": 2,
	  "tasks": [
	    {"id": "flow", "kind": "periodic", "period": "80ms", "deadline": "80ms",
	     "subtasks": [
	       {"exec": "4ms", "processor": 0, "replicas": [1]},
	       {"exec": "3ms", "processor": 1}
	     ]},
	    {"id": "alert", "kind": "aperiodic", "deadline": "60ms", "meanInterarrival": "70ms",
	     "subtasks": [{"exec": "2ms", "processor": 1}]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func startCluster(t *testing.T, cfg core.Config) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Workload: miniWorkload(t),
		Config:   cfg,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterEndToEnd(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyPerJob}
	c := startCluster(t, cfg)

	// The deployment plan reflects the full topology.
	if len(c.Plan.Instances) < 7 {
		t.Errorf("plan has %d instances, expected at least AC, LB, 2×TE, 2×IR, subtasks", len(c.Plan.Instances))
	}

	if err := c.StartDrivers(1.0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	c.StopDrivers()
	if !c.Drain(2 * time.Second) {
		t.Fatal("executors never drained")
	}
	// Give trailing Done events time to land.
	time.Sleep(50 * time.Millisecond)

	var arrived, released int64
	for i := 0; i < 2; i++ {
		te, err := c.TE(i)
		if err != nil {
			t.Fatal(err)
		}
		s := te.StatsSnapshot()
		arrived += s.Arrived
		released += s.Released
	}
	if arrived == 0 {
		t.Fatal("no arrivals generated")
	}
	if released == 0 {
		t.Fatal("no jobs released")
	}
	completed := c.Collector().Completed()
	if completed == 0 {
		t.Fatal("no jobs completed end to end")
	}
	if completed > released {
		t.Errorf("completed %d > released %d", completed, released)
	}

	// The admission controller saw real traffic and its ledger is sane.
	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := ac.Controller()
	if atomic.LoadInt64(&ctrl.Stats.Tests) == 0 {
		t.Error("admission controller never ran a test")
	}
	// Audit through the AC's lock: expiry timers may still be mutating the
	// ledger, and reading it bare races with them.
	if err := ac.AuditLedger(); err != nil {
		t.Error(err)
	}
	// Per-job AC + IR per job: timing instrumentation collected samples.
	if ctrl.Timing().Test.Count() == 0 {
		t.Error("no admission-test timing samples")
	}
}

func TestClusterPerTaskFastPath(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerTask, IR: core.StrategyNone, LB: core.StrategyNone}
	c := startCluster(t, cfg)
	if err := c.StartDrivers(1.0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	c.StopDrivers()
	c.Drain(2 * time.Second)

	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	ctrl := ac.Controller()
	// flow is periodic: tested once. alert is aperiodic: tested per arrival.
	te1, err := c.TE(1)
	if err != nil {
		t.Fatal(err)
	}
	alertArrivals := te1.StatsSnapshot().Arrived
	if tests := atomic.LoadInt64(&ctrl.Stats.Tests); tests < 1 || tests > 1+alertArrivals {
		t.Errorf("Tests = %d, want 1 (flow) + up to %d (alerts)", tests, alertArrivals)
	}
	te0, err := c.TE(0)
	if err != nil {
		t.Fatal(err)
	}
	if s := te0.StatsSnapshot(); s.Released < 2 {
		t.Errorf("per-task fast path released %d jobs, want several", s.Released)
	}
}

func TestClusterIdleResettingFlows(t *testing.T) {
	cfg := core.Config{AC: core.StrategyPerJob, IR: core.StrategyPerJob, LB: core.StrategyNone}
	c := startCluster(t, cfg)
	if err := c.StartDrivers(1.0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	c.StopDrivers()
	c.Drain(2 * time.Second)
	time.Sleep(100 * time.Millisecond)

	ac, err := c.AC()
	if err != nil {
		t.Fatal(err)
	}
	if ac.ResetsApplied() == 0 {
		t.Error("no idle resets reached the admission controller")
	}
}

func TestClusterStartValidation(t *testing.T) {
	if _, err := Start(Options{}); err == nil {
		t.Error("Start accepted nil workload")
	}
	w := miniWorkload(t)
	bad := core.Config{AC: core.StrategyPerTask, IR: core.StrategyPerJob, LB: core.StrategyNone}
	if _, err := Start(Options{Workload: w, Config: bad}); err == nil {
		t.Error("Start accepted invalid config")
	}
}
