package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ccm"
	"repro/internal/eventchan"
	"repro/internal/sched"
)

// StandbyAC is the warm-standby admission state mirror: it tails the active
// AC's epoch-stamped replication stream (EvReplicate) and applies each
// ledger mutation to a private ledger, so promotion after an AC failure
// needs no state rebuild — the mirror IS the ledger a successor AC would
// start from.
//
// The epoch fence is the split-brain guard: after a failover advances the
// configuration epoch, Fence(newEpoch) makes the standby discard any
// straggling records stamped with an older epoch — decisions made by the
// deposed AC after the cluster moved on are detectable (their stamp is
// stale) and ignorable, exactly the property the replication stream's
// epoch stamping exists to provide.
//
// Ordering: records carry an AC-local strictly increasing Seq. Records for
// one job are causally ordered by the AC itself (a job is admitted before
// it can expire or reset); records for different jobs commute on the
// ledger, so the mirror applies them as they arrive and tracks the highest
// Seq seen for observability.
type StandbyAC struct {
	mu     sync.Mutex
	ledger *sched.Ledger
	sub    *eventchan.Subscription

	// minEpoch is the fence: records stamped with an older epoch are ignored.
	minEpoch int64
	// lastSeq is the highest replication Seq applied.
	lastSeq int64
	// applied counts applied records; ignored counts records dropped by the
	// epoch fence; failed counts records whose ledger mutation errored
	// (duplicate admit after a promote race — benign, but counted).
	applied int64
	ignored int64
	failed  int64
}

var _ ccm.Component = (*StandbyAC)(nil)

// NewStandbyAC returns an unconfigured standby.
func NewStandbyAC() *StandbyAC {
	return &StandbyAC{}
}

// Configure sizes the mirror ledger from the Processors attribute.
func (s *StandbyAC) Configure(attrs map[string]string) error {
	procs, err := attrInt(attrs, AttrProcessors)
	if err != nil {
		return err
	}
	if procs <= 0 {
		return fmt.Errorf("live: standby: non-positive processor count %d", procs)
	}
	s.mu.Lock()
	s.ledger = sched.NewLedger(procs)
	s.mu.Unlock()
	return nil
}

// Activate subscribes to the replication stream.
func (s *StandbyAC) Activate(ctx *ccm.Context) error {
	s.mu.Lock()
	if s.ledger == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: standby activated before configuration", ErrNotConfigured)
	}
	s.mu.Unlock()
	// Activation arrives over the ORB in a dispatch goroutine: subscribe
	// outside the lock (delivery takes s.mu), publish the handle under it.
	sub := ctx.Events.Subscribe(EvReplicate, s.onReplicate)
	s.mu.Lock()
	s.sub = sub
	s.mu.Unlock()
	return nil
}

// Passivate detaches from the stream. The mirror ledger stays readable.
func (s *StandbyAC) Passivate() error {
	s.mu.Lock()
	sub := s.sub
	s.sub = nil
	s.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
	return nil
}

// onReplicate applies one replicated ledger mutation.
func (s *StandbyAC) onReplicate(ev eventchan.Event) {
	var rec RepRecord
	if err := rec.DecodePayload(ev.Payload); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return
	}
	if rec.Epoch < s.minEpoch {
		s.ignored++
		return
	}
	if rec.Seq > s.lastSeq {
		s.lastSeq = rec.Seq
	}
	switch rec.Kind {
	case RepAdmit:
		if err := s.ledger.AddJob(rec.Ref, rec.TaskKind, rec.Placement, rec.Permanent, time.Duration(rec.ExpiryNanos)); err != nil {
			s.failed++
			return
		}
	case RepExpire:
		s.ledger.ExpireJob(rec.Ref)
	case RepReset:
		for _, r := range rec.Entries {
			s.ledger.ResetReported(r)
		}
	case RepWithdraw:
		if rec.Task != "" {
			s.ledger.RemoveTask(rec.Task)
		} else {
			s.ledger.WithdrawJob(rec.Ref)
		}
	case RepRelocate:
		// Under AC-per-task a task owns exactly one ledger job (its
		// permanent reservation); resolve its ref on the mirror and move it.
		for _, ref := range s.ledger.ActiveJobs() {
			if ref.Task == rec.Task {
				if err := s.ledger.Relocate(ref, rec.Placement); err != nil {
					s.failed++
					return
				}
				break
			}
		}
	default:
		s.failed++
		return
	}
	s.applied++
}

// Fence raises the epoch floor: replication records stamped with an older
// epoch are ignored from now on. Called at failover, with the post-failover
// epoch, before any successor AC starts deciding.
func (s *StandbyAC) Fence(epoch int64) {
	s.mu.Lock()
	if epoch > s.minEpoch {
		s.minEpoch = epoch
	}
	s.mu.Unlock()
}

// Promote hands over the mirrored ledger — the whole point of the warm
// standby: a successor AC adopts it as-is, with no rebuild or replay. The
// standby stops mirroring into it (a fresh empty ledger takes its place so
// late records cannot corrupt the promoted state).
func (s *StandbyAC) Promote() *sched.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.ledger
	if l != nil {
		s.ledger = sched.NewLedger(l.NumProcs())
	}
	return l
}

// StandbyStats is an observability snapshot of the mirror.
type StandbyStats struct {
	// Applied, Ignored and Failed count replication records by outcome.
	Applied int64
	Ignored int64
	Failed  int64
	// LastSeq is the highest replication sequence applied; MinEpoch the
	// current fence.
	LastSeq  int64
	MinEpoch int64
	// ActiveJobs is the mirror ledger's live job count.
	ActiveJobs int
}

// Stats returns a consistent snapshot.
func (s *StandbyAC) Stats() StandbyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StandbyStats{
		Applied:  s.applied,
		Ignored:  s.ignored,
		Failed:   s.failed,
		LastSeq:  s.lastSeq,
		MinEpoch: s.minEpoch,
	}
	if s.ledger != nil {
		st.ActiveJobs = len(s.ledger.ActiveJobs())
	}
	return st
}

// Audit checks the mirror ledger's internal invariants.
func (s *StandbyAC) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return fmt.Errorf("%w: standby has no ledger", ErrNotConfigured)
	}
	return s.ledger.CheckInvariants()
}
