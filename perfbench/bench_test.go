package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json with sim-overload's results for seeds 1..32")

// TestLiveCountersReadRaceFree drives live-perjob while another goroutine
// keeps reading every layer counter the traced run reads; under -race it
// shows those reads synchronize with the layers' updates.
func TestLiveCountersReadRaceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live cluster")
	}
	w, err := lookupWorkload("live-perjob")
	if err != nil {
		t.Fatal(err)
	}
	tasks := w.live.taskSet(1)
	s, _, err := setUp(w.live, 1, tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := readLive(s.c); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	o, _ := s.measure(rand.New(rand.NewSource(1)), 50, time.Second, true)
	close(stop)
	wg.Wait()
	if o.submitted == 0 || o.lost+o.unresolved+o.dupes+o.errs > 0 {
		t.Fatalf("outcome %d submitted, %d lost, %d unresolved, %d duplicated, %d errors", o.submitted, o.lost, o.unresolved, o.dupes, o.errs)
	}
	if err := s.audit(); err != nil {
		t.Fatal(err)
	}
}

// TestSimRepeatsExactly runs a small overloaded simulation twice: the
// results must repeat exactly, account for every arrival, and include
// rejections.
func TestSimRepeatsExactly(t *testing.T) {
	w := &simWorkload{cfg: mustConfig("J_T_T"), procs: 4, tasks: 40, targetUtil: 0.9, horizon: 2 * time.Second}
	a, err := simOnce(w, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simOnce(w, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !a.same(b) {
		t.Fatalf("repeat differs: %+v vs %+v", a, b)
	}
	if a.Arrived == 0 || a.Released+a.Skipped != a.Arrived || a.Completed != a.Released || a.Skipped == 0 {
		t.Fatalf("accounting: %+v", a)
	}
}

// TestGolden checks sim-overload against the recorded results for seed 1,
// or with -update records seeds 1..32.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full simulation workload")
	}
	w, err := lookupWorkload("sim-overload")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		g := map[string]simOutcome{}
		for seed := int64(1); seed <= 32; seed++ {
			o, err := simOnce(w.sim, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			g[fmt.Sprint(seed)] = o
		}
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := golden["1"]
	if !ok {
		t.Fatal("golden.json has no entry for seed 1")
	}
	got, err := simOnce(w.sim, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.same(want) {
		t.Fatalf("seed 1: %+v, recorded %+v", got, want)
	}
}

// TestLedgerProbeAudits replays a small task set through the ledger probe.
func TestLedgerProbeAudits(t *testing.T) {
	w, err := lookupWorkload("live-perjob")
	if err != nil {
		t.Fatal(err)
	}
	tasks := w.live.taskSet(2)
	lp, err := probeLedger(tasks, w.live.procs, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if lp.accept <= 0 || lp.accept > 1 || lp.p50ns <= 0 {
		t.Fatalf("probe: %+v", lp)
	}
}
