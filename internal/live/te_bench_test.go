package live

import (
	"sync"
	"testing"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// benchTE builds an activated effector with a cached per-task decision for
// task "p" (task "a" stays undecided, so its submissions take the slow
// path through te.mu and the event plane).
func benchTE(tb testing.TB) *TaskEffector {
	tb.Helper()
	node, err := NewNode("te-bench", 0, "127.0.0.1:0", 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })
	te := NewTaskEffector()
	if err := te.Configure(map[string]string{AttrProcessor: "0", AttrWorkload: testWorkloadJSON}); err != nil {
		tb.Fatal(err)
	}
	if err := te.Activate(&ccm.Context{Node: "te-bench", ORB: node.ORB, Events: node.Channel}); err != nil {
		tb.Fatal(err)
	}
	if _, err := te.Arrive("p"); err != nil {
		tb.Fatal(err)
	}
	te.onAccept(eventchan.Event{Type: EvAccept, Payload: Accept{
		Task: "p", Job: 0, Ok: true,
		Placement:       []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.05}},
		PerTaskDecision: true,
		Epoch:           0,
	}.AppendPayload(nil)})
	if _, ok := te.cachedDecision("p"); !ok {
		tb.Fatal("per-task decision was not cached")
	}
	return te
}

// BenchmarkTECachedSubmit measures the cached per-task Submit fast path:
// solo, and racing a goroutine that continuously injects first-admission
// (undecided) arrivals through the slow path. The slow path holds te.mu;
// the cached path must not, so the two sub-benchmark times should stay in
// the same ballpark.
func BenchmarkTECachedSubmit(b *testing.B) {
	cached := func(b *testing.B, te *TaskEffector) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := te.SubmitJob("p"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("solo", func(b *testing.B) {
		cached(b, benchTE(b))
	})
	b.Run("vs-first-admission", func(b *testing.B) {
		te := benchTE(b)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Slow path: te.mu, waiting-map hold, TaskArrive push.
				_, _ = te.SubmitJob("a")
				if n++; n%1024 == 0 {
					te.mu.Lock()
					clear(te.waiting)
					te.mu.Unlock()
				}
			}
		}()
		cached(b, te)
		close(stop)
		<-done
	})
}

// TestTEConcurrentCachedSubmit drives cached and first-admission submissions
// concurrently (run under -race) and checks the atomic counters add up.
func TestTEConcurrentCachedSubmit(t *testing.T) {
	te := benchTE(t)
	base := te.StatsSnapshot()
	const workers = 4
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				adm, err := te.SubmitJob("p")
				if err != nil {
					t.Error(err)
					return
				}
				if adm.Outcome != core.AdmissionAccepted {
					t.Errorf("cached submit outcome = %v", adm.Outcome)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _ = te.SubmitJob("a")
			}
		}()
	}
	wg.Wait()
	s := te.StatsSnapshot()
	if got, want := s.Arrived-base.Arrived, int64(2*workers*perWorker); got != want {
		t.Errorf("Arrived delta = %d, want %d", got, want)
	}
	if got, want := s.Released-base.Released, int64(workers*perWorker); got < want {
		t.Errorf("Released delta = %d, want at least %d", got, want)
	}
	seen := make(map[int64]bool)
	te.mu.Lock()
	for ref := range te.waiting {
		if ref.Task == "a" {
			if seen[ref.Job] {
				t.Errorf("job number %d assigned twice", ref.Job)
			}
			seen[ref.Job] = true
		}
	}
	te.mu.Unlock()
}
