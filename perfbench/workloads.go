package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// liveWorkload is an open-loop workload against an in-process live cluster
// (manager plus application nodes on TCP loopback).
type liveWorkload struct {
	// cfg is the AC/IR/LB combination the cluster is deployed with.
	cfg core.Config
	// kind is the task kind: aperiodic arrivals are tested one by one,
	// periodic tasks are admitted once and then resolve from the cached
	// per-task decision under per-task admission control.
	kind sched.TaskKind
	// tasks two-stage tasks over procs application nodes; with replicas
	// every stage also has a duplicate on the other node, so per-job load
	// balancing has a choice to make.
	tasks, procs int
	replicas     bool
	exec         time.Duration
	deadline     time.Duration
	// nominal is the Poisson arrival rate (jobs/s) at which latency and
	// cost are measured.
	nominal float64
	// reconfigVia, when set, makes every set-up finish with a Reconfigure
	// to this combination and back, so the quiesce protocol and the
	// configuration-engine delta path are part of the measured set-up.
	reconfigVia *core.Config
}

// simWorkload is a workload on the deterministic simulation binding.
type simWorkload struct {
	cfg        core.Config
	procs      int
	tasks      int
	targetUtil float64
	horizon    time.Duration
}

// workloadDef names one benchmark workload. Exactly one of live and sim is
// set.
type workloadDef struct {
	name string
	why  string
	live *liveWorkload
	sim  *simWorkload
}

func mustConfig(s string) core.Config {
	c, err := core.ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// workloads are the benchmark's workloads. Their names and reasons are
// mirrored in BENCHMARK.json (names_test.go checks that they agree).
var workloads = []workloadDef{
	{
		// Every arrival makes the full TE -> AC -> ledger -> Accept round
		// trip with per-job idle-reset reports and load-balancer placement.
		// With 64 subtask instances per node every Release/Trigger event is
		// decoded by many subscribers, so the event plane's fan-out decode
		// dominates CPU per job.
		name: "live-perjob",
		why:  "live J_J_J, 32 aperiodic two-stage tasks with replicas on 2 nodes: every job takes the full TE-AC-ledger-IR round trip and a wide event fan-out",
		live: &liveWorkload{
			cfg:         mustConfig("J_J_J"),
			kind:        sched.Aperiodic,
			tasks:       32,
			procs:       2,
			replicas:    true,
			exec:        20 * time.Microsecond,
			deadline:    250 * time.Millisecond,
			nominal:     50,
			reconfigVia: ptr(mustConfig("J_T_J")),
		},
	},
	{
		// After each task's first admission, Submit resolves from the
		// cached per-task decision: no AC, ledger or IR traffic and few
		// subscribers. It shares the event and ORB planes with live-perjob
		// but bypasses admission, so an AC or ledger change should leave
		// it unchanged. Per-task decisions are cached for periodic tasks
		// only (aperiodic arrivals are always tested), so its tasks are
		// periodic; the benchmark submits them on its own Poisson
		// schedule, not on their periods.
		name: "live-cached",
		why:  "live T_N_N, 4 periodic two-stage tasks on 2 nodes: Submit resolves from the cached per-task decision, so admission is bypassed",
		live: &liveWorkload{
			cfg:      mustConfig("T_N_N"),
			kind:     sched.Periodic,
			tasks:    4,
			procs:    2,
			exec:     20 * time.Microsecond,
			deadline: 250 * time.Millisecond,
			nominal:  200,
		},
	},
	{
		// The simulation binding alone: des, core and sched with no
		// transport. Offered above the AUB bound, so the ledger both
		// accepts and rejects (J_J_J admits everything even at 0.9).
		name: "sim-overload",
		why:  "simulation J_T_T, 10000 tasks on 50 processors at target utilization 0.9: des, core and sched only, with the ledger rejecting about a third of arrivals",
		sim: &simWorkload{
			cfg:        mustConfig("J_T_T"),
			procs:      50,
			tasks:      10000,
			targetUtil: 0.9,
			horizon:    4 * time.Second,
		},
	},
}

func ptr[T any](v T) *T { return &v }

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// taskSet builds the live workload's tasks from the seed. Every node is home
// to the same number of tasks — an unbalanced draw would change how much of
// the work runs in parallel, and with it latency and set-up time, from one
// seed to the next — and the seed picks which tasks those are. The second
// stage runs on another node.
func (w *liveWorkload) taskSet(seed int64) []*sched.Task {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(w.tasks)
	out := make([]*sched.Task, w.tasks)
	for i := range out {
		home := order[i] % w.procs
		next := (home + 1 + rng.Intn(w.procs-1)) % w.procs
		st0 := sched.Subtask{Index: 0, Exec: w.exec, Processor: home}
		st1 := sched.Subtask{Index: 1, Exec: w.exec, Processor: next}
		if w.replicas {
			st0.Replicas = []int{next}
			st1.Replicas = []int{home}
		}
		t := &sched.Task{
			ID:       fmt.Sprintf("t%02d", i),
			Kind:     w.kind,
			Deadline: w.deadline,
			Subtasks: []sched.Subtask{st0, st1},
		}
		if w.kind == sched.Periodic {
			t.Period = w.deadline
		} else {
			// Per-task share of the nominal rate; the arrival process is the
			// benchmark's own, this only satisfies the task model.
			t.MeanInterarrival = time.Duration(float64(w.tasks) / w.nominal * float64(time.Second))
		}
		out[i] = t
	}
	return out
}

// taskSet generates the simulation workload's tasks from the seed, shaped
// like workload.ScaleParams at the workload's target utilization.
func (w *simWorkload) taskSet(seed int64) ([]*sched.Task, error) {
	p := workload.ScaleParams(w.procs, w.tasks, int(seed))
	p.TargetUtil = w.targetUtil
	return workload.Generate(p)
}
