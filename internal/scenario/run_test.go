package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	wspec "repro/internal/spec"
)

// churnSpec is a compact open-world scenario used across the run and
// journal tests: an inline workload, a joining tenant, a storm, a
// departure, and a strategy swap.
func churnSpec() *Spec {
	inline := &wspec.Workload{
		Name:       "mini",
		Processors: 2,
		Tasks: []wspec.TaskSpec{
			{
				ID: "flow", Kind: "periodic",
				Period: wspec.Duration(60_000_000), Deadline: wspec.Duration(60_000_000),
				Subtasks: []wspec.SubtaskSpec{
					{Exec: wspec.Duration(2_000_000), Processor: 0, Replicas: []int{1}},
					{Exec: wspec.Duration(1_000_000), Processor: 1},
				},
			},
			{
				ID: "alert", Kind: "aperiodic",
				Deadline: wspec.Duration(50_000_000), MeanInterarrival: wspec.Duration(40_000_000),
				Subtasks: []wspec.SubtaskSpec{
					{Exec: wspec.Duration(1_000_000), Processor: 1, Replicas: []int{0}},
				},
			},
		},
	}
	maxDropped := int64(0)
	return &Spec{
		Name:     "mini-churn",
		Config:   "T_T_T",
		Horizon:  wspec.Duration(2_000_000_000), // 2s
		Seed:     99,
		Workload: WorkloadRef{Inline: inline},
		Arrivals: []ArrivalBlock{
			{Tasks: []string{"alert"}, Shape: ShapeSpec{Kind: "constant", Rate: 30}},
			{Tasks: []string{"guest"}, Shape: ShapeSpec{Kind: "spike", At: wspec.Duration(900_000_000), Every: wspec.Duration(200_000_000), Burst: 2}},
		},
		Injections: []Injection{
			{
				At:   wspec.Duration(500_000_000),
				Kind: InjectAddTasks,
				Tasks: []wspec.TaskSpec{{
					ID: "guest", Kind: "aperiodic",
					Deadline: wspec.Duration(80_000_000), MeanInterarrival: wspec.Duration(100_000_000),
					Subtasks: []wspec.SubtaskSpec{{Exec: wspec.Duration(1_000_000), Processor: 0, Replicas: []int{1}}},
				}},
			},
			{At: wspec.Duration(800_000_000), Kind: InjectSubmitStorm, IDs: []string{"alert"}, Count: 5},
			{At: wspec.Duration(1_200_000_000), Kind: InjectReconfigure, To: "J_J_J"},
			{At: wspec.Duration(1_500_000_000), Kind: InjectRemoveTasks, IDs: []string{"guest"}},
		},
		Invariants: &Invariants{
			ZeroAdmittedLoss: true,
			LedgerAudit:      true,
			WatchOrdering:    true,
			MinArrived:       40,
			MaxWatchDropped:  &maxDropped,
		},
		Live: LiveSettings{TimeScale: 10},
	}
}

// The sim executor is deterministic run to run and satisfies the spec's
// invariant block.
func TestRunSimDeterministicChurn(t *testing.T) {
	a, err := RunSim(churnSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed {
		t.Fatalf("invariants violated: %v", a.Violations)
	}
	if a.Epoch != 1 {
		t.Fatalf("reconfigure did not advance epoch: %d", a.Epoch)
	}
	// Arrivals scheduled for "guest" before its join must be filtered, and
	// the spike train schedules some (at 900ms the task exists; the compile
	// also assigns natural pre-add arrivals to nothing — so assert only
	// that the mechanism reported consistently).
	b, err := RunSim(churnSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrived != b.Arrived || a.Released != b.Released || a.Completed != b.Completed ||
		a.Missed != b.Missed || a.Ratio != b.Ratio || a.FilteredArrivals != b.FilteredArrivals {
		t.Fatalf("sim runs differ:\n%+v\n%+v", a, b)
	}
}

// Arrivals targeted at a task before it joins (or after it leaves) are
// filtered, not errors.
func TestRunSimFiltersInactiveArrivals(t *testing.T) {
	s := churnSpec()
	// Aim a dense constant stream at the guest task across its whole
	// lifetime: pre-join and post-leave arrivals must be filtered.
	s.Arrivals[1] = ArrivalBlock{Tasks: []string{"guest"}, Shape: ShapeSpec{Kind: "constant", Rate: 20}}
	res, err := RunSim(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilteredArrivals == 0 {
		t.Fatal("expected pre-join/post-leave guest arrivals to be filtered")
	}
	if !res.Passed {
		t.Fatalf("invariants violated: %v", res.Violations)
	}
}

// extraConfigs lists strategy combinations a checked-in spec must also pass
// under, besides its own: tenant-churn covers the open-world lifecycle under
// the minimal static (T_N_N), per-task (its own T_T_T) and fully dynamic
// (J_J_J) combinations.
var extraConfigs = map[string][]string{"tenant-churn.json": {"T_N_N", "J_J_J"}}

// Every checked-in scenario spec parses, validates, and passes its
// invariant block on the simulation binding — the sim half of the CI
// scenario matrix, kept green locally.
func TestCheckedInScenarioSpecsSim(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		specs++
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range append([]string{s.Config}, extraConfigs[e.Name()]...) {
				s.Config = cfg
				res, err := RunSim(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Passed {
					t.Fatalf("scenario %q under %s violated invariants: %v", s.Name, cfg, res.Violations)
				}
			}
		})
	}
	if specs < 6 {
		t.Fatalf("expected at least 6 checked-in scenario specs, found %d", specs)
	}
}

// The live executor runs the same compact spec end to end on a loopback
// cluster and satisfies the same invariant block.
func TestRunLiveChurnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster smoke skipped in -short mode")
	}
	res, err := RunLive(churnSpec(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("live invariants violated: %v (result %+v)", res.Violations, res)
	}
	if res.Binding != BindingLive || res.TimeScale != 10 {
		t.Fatalf("unexpected live result identity: %+v", res)
	}
}

// The checked-in node-loss spec passes its full invariant block on the live
// binding whichever application node it kills: home, replica target and
// bystander geometries all fail over and recover with no admitted job lost,
// both ledgers clean and both failure-plane events observed.
func TestNodeLossEveryVictim(t *testing.T) {
	if testing.Short() {
		t.Skip("live node-loss runs skipped in -short mode")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "node-loss.json"))
	if err != nil {
		t.Fatal(err)
	}
	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			s, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range s.Injections {
				if k := s.Injections[i].Kind; k == InjectKillNode || k == InjectRecoverNode {
					s.Injections[i].Node = &victim
				}
			}
			res, err := RunLive(s, nodeLossTimeScale, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("live invariants violated: %v (result %+v)", res.Violations, res)
			}
		})
	}
}
