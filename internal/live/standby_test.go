package live

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// pushRep pushes one replication record into the node's channel, which
// delivers it synchronously to the standby's subscription.
func pushRep(t *testing.T, node *Node, rec RepRecord) {
	t.Helper()
	if err := node.Channel.Push(eventchan.Event{Type: EvReplicate, Payload: rec.AppendPayload(nil)}); err != nil {
		t.Fatal(err)
	}
}

func TestStandbyACMirrorsFencesAndPromotes(t *testing.T) {
	node, err := NewNode("sb-test", -1, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	sb := NewStandbyAC()
	if err := sb.Activate(&ccm.Context{Node: "sb-test", ORB: node.ORB, Events: node.Channel}); !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("Activate before Configure: %v, want ErrNotConfigured", err)
	}
	if err := sb.Configure(nil); err == nil {
		t.Error("Configure accepted missing processor count")
	}
	if err := sb.Configure(map[string]string{AttrProcessors: "0"}); err == nil {
		t.Error("Configure accepted zero processors")
	}
	if err := sb.Configure(map[string]string{AttrProcessors: "2"}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Activate(&ccm.Context{Node: "sb-test", ORB: node.ORB, Events: node.Channel}); err != nil {
		t.Fatal(err)
	}
	defer sb.Passivate()

	expiry := time.Duration(time.Now().Add(time.Hour).UnixNano())
	refX := sched.JobRef{Task: "x", Job: 1}
	pushRep(t, node, RepRecord{
		Epoch: 0, Seq: 1, Kind: RepAdmit, Ref: refX, TaskKind: sched.Aperiodic,
		Placement:   []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}, {Stage: 1, Proc: 1, Util: 0.2}},
		ExpiryNanos: int64(expiry),
	})
	st := sb.Stats()
	if st.Applied != 1 || st.ActiveJobs != 1 || st.LastSeq != 1 {
		t.Fatalf("after admit: %+v", st)
	}

	// The mirror applies expiry and withdrawal records.
	pushRep(t, node, RepRecord{Epoch: 0, Seq: 2, Kind: RepExpire, Ref: refX})
	if st = sb.Stats(); st.Applied != 2 || st.ActiveJobs != 0 {
		t.Fatalf("after expire: %+v", st)
	}

	// The epoch fence drops records from the deposed era.
	sb.Fence(5)
	pushRep(t, node, RepRecord{
		Epoch: 2, Seq: 3, Kind: RepAdmit, Ref: sched.JobRef{Task: "stale", Job: 9},
		TaskKind:  sched.Aperiodic,
		Placement: []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.1}},
	})
	st = sb.Stats()
	if st.Ignored != 1 || st.ActiveJobs != 0 || st.MinEpoch != 5 {
		t.Fatalf("fence leaked a stale record: %+v", st)
	}
	// Fence never lowers the floor.
	sb.Fence(3)
	if st = sb.Stats(); st.MinEpoch != 5 {
		t.Fatalf("Fence lowered the floor: %+v", st)
	}

	// Post-fence records apply; a task withdrawal clears all its jobs.
	for i, job := range []int64{10, 11} {
		pushRep(t, node, RepRecord{
			Epoch: 5, Seq: 4 + int64(i), Kind: RepAdmit,
			Ref: sched.JobRef{Task: "y", Job: job}, TaskKind: sched.Aperiodic,
			Placement:   []sched.PlacedStage{{Stage: 0, Proc: 1, Util: 0.05}},
			ExpiryNanos: int64(expiry),
		})
	}
	pushRep(t, node, RepRecord{Epoch: 5, Seq: 6, Kind: RepWithdraw, Task: "y"})
	if st = sb.Stats(); st.ActiveJobs != 0 || st.LastSeq != 6 {
		t.Fatalf("after task withdrawal: %+v", st)
	}

	// Unknown record kinds are counted, not applied.
	pushRep(t, node, RepRecord{Epoch: 5, Seq: 7, Kind: "mystery"})
	if st = sb.Stats(); st.Failed != 1 {
		t.Fatalf("unknown kind not counted: %+v", st)
	}
	if err := sb.Audit(); err != nil {
		t.Fatal(err)
	}

	// Promote hands over the mirror and replaces it with a fresh ledger.
	pushRep(t, node, RepRecord{
		Epoch: 5, Seq: 8, Kind: RepAdmit, Ref: sched.JobRef{Task: "z", Job: 1},
		TaskKind: sched.Periodic, Permanent: true,
		Placement: []sched.PlacedStage{{Stage: 0, Proc: 0, Util: 0.3}},
	})
	ledger := sb.Promote()
	if ledger == nil || len(ledger.ActiveJobs()) != 1 {
		t.Fatalf("promoted ledger = %v", ledger)
	}
	if err := ledger.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st = sb.Stats(); st.ActiveJobs != 0 {
		t.Fatalf("standby kept jobs after promotion: %+v", st)
	}
	// Late records land on the fresh ledger, not the promoted one.
	pushRep(t, node, RepRecord{
		Epoch: 5, Seq: 9, Kind: RepAdmit, Ref: sched.JobRef{Task: "late", Job: 1},
		TaskKind:    sched.Aperiodic,
		Placement:   []sched.PlacedStage{{Stage: 0, Proc: 1, Util: 0.1}},
		ExpiryNanos: int64(expiry),
	})
	if got := len(ledger.ActiveJobs()); got != 1 {
		t.Errorf("late record corrupted the promoted ledger: %d jobs", got)
	}
	if st = sb.Stats(); st.ActiveJobs != 1 {
		t.Errorf("fresh mirror missed the late record: %+v", st)
	}
}
