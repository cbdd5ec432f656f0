package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ccm"
	"repro/internal/core"
	"repro/internal/eventchan"
)

// IdleResetter is the live IR component: it records Complete reports from
// the local subtask components and, when the node's executor drains (the
// idle detector), pushes an "Idle Resetting" event with the newly completed,
// unexpired subjobs to the admission controller.
type IdleResetter struct {
	mu       sync.Mutex
	proc     int
	strategy core.Strategy
	rec      *core.IdleResetter
	ch       *eventchan.Channel
	executor *Executor
	active   bool
	closed   bool

	// ReportPush measures the paper's operation 7 (report completed
	// subtasks: idle detection through event push).
	ReportPush core.OpStats
}

var _ ccm.Component = (*IdleResetter)(nil)

// NewIdleResetter returns an unconfigured IR component.
func NewIdleResetter() *IdleResetter { return &IdleResetter{} }

// Configure parses the processor ID and IR strategy.
func (ir *IdleResetter) Configure(attrs map[string]string) error {
	ir.mu.Lock()
	if ir.active {
		ir.mu.Unlock()
		return fmt.Errorf("%w: IR is activated; use Reconfigure", ErrAlreadyActive)
	}
	ir.mu.Unlock()
	proc, err := attrInt(attrs, AttrProcessor)
	if err != nil {
		return err
	}
	strategy, err := parseStrategyAttr(attrs, AttrIRStrategy)
	if err != nil {
		return err
	}
	// Publish under the lock the event handlers read through; configuration
	// arrives in an ORB dispatch goroutine.
	ir.mu.Lock()
	ir.proc = proc
	ir.strategy = strategy
	ir.rec = core.NewIdleResetter(strategy, proc)
	ir.mu.Unlock()
	return nil
}

// Activate subscribes to local Complete reports and installs the idle
// detector on the node executor. The ports are wired whenever an executor
// service exists — even under the None strategy, whose handlers stay inert
// — so a later Reconfigure can enable resetting without re-activation.
// Without an executor service the None strategy stays legal (and fully
// inert); any other strategy needs the idle detector and fails.
func (ir *IdleResetter) Activate(ctx *ccm.Context) error {
	exec, _ := ctx.Service(SvcExecutor).(*Executor)
	ir.mu.Lock()
	if ir.rec == nil {
		ir.mu.Unlock()
		return fmt.Errorf("%w: IR activated before configuration", ErrNotConfigured)
	}
	ir.active = true
	if exec == nil {
		inert := ir.strategy == core.StrategyNone
		ir.mu.Unlock()
		if inert {
			return nil
		}
		return errors.New("live: IR requires an executor service")
	}
	ir.ch = ctx.Events
	ir.executor = exec
	ir.mu.Unlock()
	// Subscribe and install the idle detector outside the lock (delivery
	// holds the shard lock, then handlers take ir.mu).
	ctx.Events.Subscribe(EvComplete, ir.onComplete)
	exec.SetIdleCallback(ir.onIdle)
	return nil
}

// Reconfigure hot-swaps the resetting strategy: the embedded recorder
// refilters its pending completions under the new rule, so the next idle
// report never leaks a completion the new strategy would not record.
// Enabling resetting on a component activated without an executor service
// is refused — the idle detector has nowhere to hang.
func (ir *IdleResetter) Reconfigure(attrs map[string]string) error {
	strategy := core.Strategy(0)
	if _, ok := attrs[AttrIRStrategy]; ok {
		var err error
		if strategy, err = parseStrategyAttr(attrs, AttrIRStrategy); err != nil {
			return err
		}
	}
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if ir.rec == nil {
		return fmt.Errorf("%w: IR reconfigured before configuration", ErrNotConfigured)
	}
	if strategy == 0 {
		return nil
	}
	if strategy != core.StrategyNone && ir.executor == nil {
		return errors.New("live: IR cannot enable resetting without an executor service")
	}
	ir.strategy = strategy
	ir.rec.SetStrategy(strategy)
	return nil
}

// Passivate detaches the idle detector.
func (ir *IdleResetter) Passivate() error {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	ir.closed = true
	if ir.executor != nil {
		ir.executor.SetIdleCallback(nil)
	}
	return nil
}

// onComplete records a local subjob completion.
func (ir *IdleResetter) onComplete(ev eventchan.Event) {
	var c Complete
	if err := c.DecodePayload(ev.Payload); err != nil {
		return
	}
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if ir.closed {
		return
	}
	ir.rec.Complete(c.Ref, c.Stage, c.Kind, time.Duration(c.DeadlineNanos))
}

// onIdle runs as the idle detector: it reports newly completed subjobs.
func (ir *IdleResetter) onIdle() {
	start := time.Now()
	ir.mu.Lock()
	if ir.closed {
		ir.mu.Unlock()
		return
	}
	reports := ir.rec.Report(time.Duration(nowNanos()))
	ch := ir.ch
	proc := ir.proc
	ir.mu.Unlock()
	if len(reports) == 0 {
		return
	}
	_ = ch.Push(eventchan.Event{Type: EvIdleReset, Payload: IdleReset{
		Proc:    proc,
		Entries: reports,
	}.AppendPayload(nil)})
	ir.ReportPush.Add(time.Since(start))
}
