// Package eventchan implements a federated real-time event channel in the
// style of TAO's federated event service, which the paper's architecture
// uses to connect all processors (Figure 1): each node runs a local event
// channel; gateways forward selected event types to peer channels over the
// ORB, where they are pushed to that node's local consumers.
//
// Events are typed and carry an opaque payload; consumers subscribe by event
// type and filter further in their handlers (consumer-side filtering, as in
// TAO's EC). The channel is built as a high-throughput event plane:
//
//   - The subscriber table is sharded by event type hash, so concurrent
//     publishers of unrelated types never contend on one lock; handler
//     lists are copy-on-write, so fan-out iterates without copying.
//   - Local delivery is synchronous in the pusher's goroutine by default;
//     SubscribeBuffered decouples a slow consumer behind its own bounded
//     queue with an explicit drop-or-block overflow policy.
//   - Remote forwarding batches: each peer gateway has a bounded pending
//     queue flushed by whichever pusher arrives first (group commit), so a
//     burst of events crosses the ORB as a few batch pushes instead of one
//     invocation each. A full pending queue fails Push with
//     ErrBackpressure instead of blocking without bound.
package eventchan

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/orb"
)

// ServantKey is the object key every channel registers on its node's ORB so
// peer gateways can push events to it.
const ServantKey = "eventchannel"

// Operations of the channel servant: the scalar push (the original
// single-message path, kept as the reference) and the batch push the
// gateway's group-commit forwarder uses.
const (
	opPush      = "push"
	opPushBatch = "pushbatch"
)

// numShards fixes the subscriber-table shard count. Shard choice only needs
// to spread event types; 32 keeps the footprint trivial while making
// same-shard collisions of hot types unlikely.
const numShards = 32

// Gateway batching defaults, overridable with WithSinkQueueDepth and
// WithSinkBatch.
const (
	// DefaultSinkQueueDepth bounds a remote sink's pending-event queue.
	DefaultSinkQueueDepth = 8192
	// DefaultSinkBatch caps the events coalesced into one gateway push.
	DefaultSinkBatch = 256
	// maxBatchBytes caps a batch's encoded size, well under the ORB's
	// frame limit, so coalescing can never construct an unsendable frame
	// out of individually valid events.
	maxBatchBytes = 4 << 20
)

// ErrBackpressure reports that a remote sink's bounded pending queue was
// full, so the event was not forwarded to that sink. Local delivery still
// happened; callers on best-effort paths count and continue.
var ErrBackpressure = errors.New("eventchan: remote sink queue full")

// Event is one typed event. Payload encoding is up to the producing
// component (the live binding uses its binary payload codec, see
// internal/live/codec.go).
type Event struct {
	// Type routes the event to subscribers (e.g. "TaskArrive", "Accept").
	Type string
	// Source names the producing node, for diagnostics and tests.
	Source string
	// Payload is the marshaled event body. Delivery is zero-copy: a
	// remotely received Payload aliases the transport buffer (for a
	// batched push, the whole batch's buffer), and a local one aliases the
	// pusher's slice. Handlers that retain a payload past their return
	// must copy it.
	Payload []byte
}

// Handler consumes events. Direct (Subscribe) handlers run synchronously in
// the delivery goroutine and must not block; buffered (SubscribeBuffered)
// handlers run in the subscription's own goroutine.
type Handler func(Event)

// OverflowPolicy selects what a buffered subscription does when its queue is
// full.
type OverflowPolicy int

const (
	// DropNewest discards the incoming event and counts it.
	DropNewest OverflowPolicy = iota
	// Block makes the pusher wait for queue space (bounded-buffer
	// backpressure).
	Block
)

// Subscription is one consumer registration; Cancel removes it. The zero
// value is invalid — Subscribe and SubscribeBuffered return live ones.
type Subscription struct {
	ch        *Channel
	eventType string
	h         Handler
	// queue is nil for direct (synchronous) subscriptions.
	queue   chan Event
	policy  OverflowPolicy
	dropped atomic.Int64
	cancel  chan struct{}
	once    sync.Once
}

// Dropped returns how many events this subscription discarded under the
// DropNewest policy.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Cancel removes the subscription. A buffered subscription's goroutine
// drains what it already accepted, then exits; Cancel does not wait for it.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.ch.removeSub(s)
		close(s.cancel)
	})
}

// deliver routes one event per the subscription mode and policy.
func (s *Subscription) deliver(ev Event) {
	if s.queue == nil {
		s.h(ev)
		return
	}
	if s.policy == Block {
		select {
		case s.queue <- ev:
		case <-s.cancel:
		}
		return
	}
	select {
	case s.queue <- ev:
	default:
		s.dropped.Add(1)
		s.ch.subDropped.Add(1)
	}
}

// loop is a buffered subscription's delivery goroutine.
func (s *Subscription) loop() {
	defer s.ch.wg.Done()
	for {
		select {
		case ev := <-s.queue:
			s.h(ev)
		case <-s.cancel:
			for {
				select {
				case ev := <-s.queue:
					s.h(ev)
				default:
					return
				}
			}
		}
	}
}

// shard is one slice of the subscriber and gateway tables. The slices it
// holds are copy-on-write: readers grab them under RLock and iterate lock-
// free; writers replace them wholesale.
type shard struct {
	mu    sync.RWMutex
	subs  map[string][]*Subscription
	sinks map[string][]*sink
}

// sink is the gateway state for one peer address, shared by every event
// type forwarded there so cross-type bursts batch together. Forwarding is
// group commit: a pusher appends to pending and, if no flush is in flight,
// becomes the flusher and drains pending in batches; pushers arriving
// mid-flight piggyback and return immediately.
type sink struct {
	addr string

	mu sync.Mutex
	// full is signaled by the flusher whenever it takes the backlog, waking
	// pushers blocked under the Block overflow policy.
	full    sync.Cond
	pending []Event
	// spare is the previous pending backing array, recycled once its batch
	// is flushed, so the two buffers ping-pong instead of the queue
	// reallocating as it slides.
	spare    []Event
	flushing bool

	batches atomic.Int64
	events  atomic.Int64
	dropped atomic.Int64
	errs    atomic.Int64
}

// PlaneStats is a snapshot of the channel's event-plane counters.
type PlaneStats struct {
	// Pushed counts local Push calls; Forwarded counts events handed to the
	// gateway path (every event × sink, the pre-batching unit).
	Pushed, Forwarded int64
	// ForwardBatches counts gateway ORB pushes; Forwarded/ForwardBatches is
	// the achieved federation batching factor.
	ForwardBatches int64
	// ForwardDropped counts events refused with ErrBackpressure.
	ForwardDropped int64
	// ForwardErrors counts failed gateway pushes (each may cover a batch).
	ForwardErrors int64
	// SubscriberDropped counts events discarded by DropNewest buffered
	// subscriptions.
	SubscriberDropped int64
}

// Channel is one node's local event channel plus its gateway state.
type Channel struct {
	node       string
	orb        *orb.ORB
	sinkDepth  int
	sinkBatch  int
	sinkPolicy OverflowPolicy

	shards [numShards]shard
	seed   maphash.Seed

	sinksMu sync.Mutex
	sinks   map[string]*sink // addr → shared gateway state

	closed atomic.Bool
	// lifeMu serializes buffered-subscription startup (closed check +
	// wg.Add) against Close's closed store + wg.Wait.
	lifeMu     sync.Mutex
	wg         sync.WaitGroup // buffered-subscription goroutines
	pushed     atomic.Int64
	forwarded  atomic.Int64
	subDropped atomic.Int64
}

// Option configures a Channel.
type Option func(*Channel)

// WithSinkQueueDepth bounds each remote sink's pending queue (default
// DefaultSinkQueueDepth). A full queue fails Push with ErrBackpressure.
func WithSinkQueueDepth(n int) Option {
	return func(c *Channel) {
		if n > 0 {
			c.sinkDepth = n
		}
	}
}

// WithSinkBatch caps the events coalesced into one gateway push (default
// DefaultSinkBatch).
func WithSinkBatch(n int) Option {
	return func(c *Channel) {
		if n > 0 {
			c.sinkBatch = n
		}
	}
}

// WithSinkPolicy selects what Push does when a remote sink's pending queue
// is full: DropNewest (the default) sheds the event with ErrBackpressure;
// Block waits for the flusher to drain, bounding the pusher instead of the
// pusher's memory.
func WithSinkPolicy(p OverflowPolicy) Option {
	return func(c *Channel) { c.sinkPolicy = p }
}

// New creates the channel and registers its push servant on the node's ORB.
func New(node string, o *orb.ORB, opts ...Option) *Channel {
	c := &Channel{
		node:      node,
		orb:       o,
		sinkDepth: DefaultSinkQueueDepth,
		sinkBatch: DefaultSinkBatch,
		seed:      maphash.MakeSeed(),
		sinks:     make(map[string]*sink),
	}
	for _, opt := range opts {
		opt(c)
	}
	for i := range c.shards {
		c.shards[i].subs = make(map[string][]*Subscription)
		c.shards[i].sinks = make(map[string][]*sink)
	}
	o.RegisterServant(ServantKey, c.servant)
	return c
}

// Node returns the owning node's name.
func (c *Channel) Node() string { return c.node }

// shardFor hashes an event type onto its shard.
func (c *Channel) shardFor(eventType string) *shard {
	return &c.shards[maphash.String(c.seed, eventType)%numShards]
}

// Subscribe registers a local consumer for an event type. The handler runs
// synchronously in each pusher's goroutine. The returned subscription may be
// ignored by consumers that live as long as the channel.
func (c *Channel) Subscribe(eventType string, h Handler) *Subscription {
	if h == nil {
		panic("eventchan: nil handler")
	}
	s := &Subscription{ch: c, eventType: eventType, h: h, cancel: make(chan struct{})}
	c.addSub(s)
	if c.closed.Load() {
		// Close may have scanned the shards before addSub landed; make the
		// late registration inert.
		s.Cancel()
	}
	return s
}

// SubscribeBuffered registers a consumer behind its own bounded queue of the
// given depth, drained by a dedicated goroutine, decoupling a slow handler
// from the pushers. policy selects the overflow behavior: DropNewest sheds
// (counted) or Block applies backpressure to the pusher.
func (c *Channel) SubscribeBuffered(eventType string, depth int, policy OverflowPolicy, h Handler) *Subscription {
	if h == nil {
		panic("eventchan: nil handler")
	}
	if depth <= 0 {
		depth = 1
	}
	s := &Subscription{
		ch:        c,
		eventType: eventType,
		h:         h,
		queue:     make(chan Event, depth),
		policy:    policy,
		cancel:    make(chan struct{}),
	}
	// Serialize against Close: never wg.Add after Close's wg.Wait started,
	// and never start a delivery goroutine Close cannot reap.
	c.lifeMu.Lock()
	if c.closed.Load() {
		c.lifeMu.Unlock()
		s.Cancel()
		return s
	}
	c.wg.Add(1)
	c.lifeMu.Unlock()
	go s.loop()
	c.addSub(s)
	if c.closed.Load() {
		// Close may have scanned the shards before addSub landed.
		s.Cancel()
	}
	return s
}

// addSub installs a subscription copy-on-write.
func (c *Channel) addSub(s *Subscription) {
	sh := c.shardFor(s.eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.subs[s.eventType]
	next := make([]*Subscription, len(cur), len(cur)+1)
	copy(next, cur)
	sh.subs[s.eventType] = append(next, s)
}

// removeSub uninstalls a subscription copy-on-write.
func (c *Channel) removeSub(s *Subscription) {
	sh := c.shardFor(s.eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.subs[s.eventType]
	next := make([]*Subscription, 0, len(cur))
	for _, other := range cur {
		if other != s {
			next = append(next, other)
		}
	}
	if len(next) == 0 {
		delete(sh.subs, s.eventType)
		return
	}
	sh.subs[s.eventType] = next
}

// AddRemoteSink configures the gateway to forward events of the given type
// to the peer channel at addr. Adding the same (type, addr) pair twice is a
// no-op. Sinks for the same address share one batching queue across event
// types.
func (c *Channel) AddRemoteSink(eventType, addr string) {
	c.sinksMu.Lock()
	snk, ok := c.sinks[addr]
	if !ok {
		snk = &sink{addr: addr}
		snk.full.L = &snk.mu
		c.sinks[addr] = snk
	}
	c.sinksMu.Unlock()

	sh := c.shardFor(eventType)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.sinks[eventType]
	for _, s := range cur {
		if s.addr == addr {
			return
		}
	}
	next := make([]*sink, len(cur), len(cur)+1)
	copy(next, cur)
	sh.sinks[eventType] = append(next, snk)
}

// RemoveRemoteSink detaches the peer at addr from every event type and
// discards its pending backlog — the failover path prunes routes to a dead
// node so the gateway stops dialing it on every push. Removing an unknown
// address is a no-op. A concurrent flush to the removed sink may still fail
// (counted); no new events are queued to it afterwards.
func (c *Channel) RemoveRemoteSink(addr string) {
	c.sinksMu.Lock()
	snk, ok := c.sinks[addr]
	if ok {
		delete(c.sinks, addr)
	}
	c.sinksMu.Unlock()
	if !ok {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for ev, cur := range sh.sinks {
			next := make([]*sink, 0, len(cur))
			for _, s := range cur {
				if s.addr != addr {
					next = append(next, s)
				}
			}
			if len(next) == 0 {
				delete(sh.sinks, ev)
			} else if len(next) != len(cur) {
				sh.sinks[ev] = next
			}
		}
		sh.mu.Unlock()
	}
	// Drop the backlog and wake any pusher blocked on the full queue; the
	// events were bound for a dead peer.
	snk.mu.Lock()
	snk.dropped.Add(int64(len(snk.pending)))
	snk.pending = nil
	snk.full.Broadcast()
	snk.mu.Unlock()
}

// Push delivers the event to local subscribers and forwards it through the
// gateway to every configured remote sink. It returns the first forwarding
// error, after attempting all sinks; local delivery always happens. Under
// concurrency the forward may be batched with other in-flight pushes to the
// same peer, in which case a transport failure surfaces on the pusher that
// performed the flush and in ForwardErrors.
func (c *Channel) Push(ev Event) error {
	return c.push(ev, (*Channel).sinkPush)
}

// PushUnbatched is the pre-batching reference path: synchronous local
// fan-out plus one scalar ORB push per (event, sink). It is kept for
// differential tests and as the event-plane benchmark baseline.
func (c *Channel) PushUnbatched(ev Event) error {
	return c.push(ev, (*Channel).forwardSingle)
}

// push is the shared delivery pipeline; forward selects the gateway path
// (batched group commit, or the scalar reference).
func (c *Channel) push(ev Event, forward func(*Channel, *sink, Event) error) error {
	if ev.Source == "" {
		ev.Source = c.node
	}
	if err := validateEvent(ev); err != nil {
		return err
	}
	if c.closed.Load() {
		return fmt.Errorf("eventchan %s: closed", c.node)
	}
	c.pushed.Add(1)

	sh := c.shardFor(ev.Type)
	sh.mu.RLock()
	subs := sh.subs[ev.Type]
	sinks := sh.sinks[ev.Type]
	sh.mu.RUnlock()

	for _, s := range subs {
		s.deliver(ev)
	}
	var firstErr error
	for _, snk := range sinks {
		if err := forward(c, snk, ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// forwardSingle sends one event to one peer via the scalar push operation.
func (c *Channel) forwardSingle(snk *sink, ev Event) error {
	body, err := encodeEvent(ev)
	if err != nil {
		return err
	}
	c.forwarded.Add(1)
	snk.batches.Add(1)
	snk.events.Add(1)
	if err := c.orb.InvokeOneWay(snk.addr, ServantKey, opPush, body); err != nil {
		snk.errs.Add(1)
		return fmt.Errorf("eventchan %s: forward %s to %s: %w", c.node, ev.Type, snk.addr, err)
	}
	return nil
}

// sinkPush enqueues the event on the sink's bounded pending queue and
// flushes by group commit: the first pusher to find no flush in flight
// drains the queue in batches; later pushers piggyback their events onto
// the running flush and return immediately.
func (c *Channel) sinkPush(snk *sink, ev Event) error {
	snk.mu.Lock()
	if len(snk.pending) >= c.sinkDepth {
		if c.sinkPolicy == Block {
			for len(snk.pending) >= c.sinkDepth && !c.closed.Load() {
				snk.full.Wait()
			}
			if c.closed.Load() {
				snk.mu.Unlock()
				return fmt.Errorf("eventchan %s: closed", c.node)
			}
		} else {
			snk.dropped.Add(1)
			snk.mu.Unlock()
			return fmt.Errorf("eventchan %s: sink %s: %w", c.node, snk.addr, ErrBackpressure)
		}
	}
	snk.pending = append(snk.pending, ev)
	if snk.flushing {
		snk.mu.Unlock()
		return nil
	}
	snk.flushing = true
	var firstErr error
	for len(snk.pending) > 0 {
		// Take the whole backlog and swap in the recycled buffer, so the
		// queue never reallocates as it slides.
		taken := snk.pending
		snk.pending = snk.spare[:0]
		snk.spare = nil
		snk.full.Broadcast()
		snk.mu.Unlock()

		var err error
		for off := 0; off < len(taken); {
			// Chunk by count and by encoded bytes: events are individually
			// frameable, and the byte cap keeps every coalesced frame that
			// way too.
			end, bytes := off, 0
			for end < len(taken) && end-off < c.sinkBatch {
				sz := 4 + 2 + len(taken[end].Type) + 2 + len(taken[end].Source) + len(taken[end].Payload)
				if end > off && bytes+sz > maxBatchBytes {
					break
				}
				bytes += sz
				end++
			}
			if e := c.flushBatch(snk, taken[off:end]); e != nil && err == nil {
				err = e
			}
			off = end
		}
		// Drop payload references before recycling the buffer.
		clear(taken)

		snk.mu.Lock()
		snk.spare = taken[:0]
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	snk.flushing = false
	snk.mu.Unlock()
	return firstErr
}

// flushBatch pushes one batch to the peer over the ORB. A single event uses
// the scalar operation (no envelope); larger batches use the batch
// operation.
func (c *Channel) flushBatch(snk *sink, batch []Event) error {
	var (
		body []byte
		op   string
		err  error
	)
	if len(batch) == 1 {
		op = opPush
		body, err = encodeEvent(batch[0])
	} else {
		op = opPushBatch
		body, err = encodeBatch(batch)
	}
	if err != nil {
		// Field lengths are validated at Push and batches are chunked under
		// the frame limit, but a single oversized event can still fail here
		// — exactly as it would on the scalar reference path.
		snk.errs.Add(1)
		return err
	}
	c.forwarded.Add(int64(len(batch)))
	snk.batches.Add(1)
	snk.events.Add(int64(len(batch)))
	// Fail-fast send first: it observes (and counts, in the ORB's
	// TransportStats.Overloads) writer-queue saturation. The batch is not
	// shed on overload — delivery falls back to the bounded-blocking send;
	// this sink's own pending queue is the shedding layer.
	err = c.orb.TryInvokeOneWay(snk.addr, ServantKey, op, body)
	if errors.Is(err, orb.ErrOverloaded) {
		err = c.orb.InvokeOneWay(snk.addr, ServantKey, op, body)
	}
	if err != nil {
		snk.errs.Add(1)
		return fmt.Errorf("eventchan %s: forward %d event(s) to %s: %w", c.node, len(batch), snk.addr, err)
	}
	return nil
}

// servant receives pushes from peer gateways and delivers them locally only
// (no re-forwarding: the deployment engine configures a single-hop
// federation, so events cannot loop).
func (c *Channel) servant(op string, arg []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("eventchan %s: closed", c.node)
	}
	switch op {
	case opPush:
		ev, err := decodeEvent(arg)
		if err != nil {
			return nil, err
		}
		c.deliverLocal(ev)
		return nil, nil
	case opPushBatch:
		events, err := decodeBatch(arg)
		if err != nil {
			return nil, err
		}
		// Memoize the shard lookup across a run of same-typed events (the
		// common case for a gateway batch). Subscriptions added mid-batch
		// see the next run; the COW slices make the stale view safe.
		var (
			lastType string
			subs     []*Subscription
			have     bool
		)
		for _, ev := range events {
			if !have || ev.Type != lastType {
				sh := c.shardFor(ev.Type)
				sh.mu.RLock()
				subs = sh.subs[ev.Type]
				sh.mu.RUnlock()
				lastType, have = ev.Type, true
			}
			for _, s := range subs {
				s.deliver(ev)
			}
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("eventchan %s: unknown operation %q", c.node, op)
	}
}

// deliverLocal fans one event out to the local subscribers only.
func (c *Channel) deliverLocal(ev Event) {
	sh := c.shardFor(ev.Type)
	sh.mu.RLock()
	subs := sh.subs[ev.Type]
	sh.mu.RUnlock()
	for _, s := range subs {
		s.deliver(ev)
	}
}

// Close stops accepting pushes and cancels every subscription, waiting for
// buffered delivery goroutines to drain. The owning ORB's shutdown tears
// down the transport.
func (c *Channel) Close() {
	// Setting closed under lifeMu orders it against buffered-subscription
	// startup: a subscriber either saw closed and never wg.Add'd, or its
	// Add is visible before the wg.Wait below.
	c.lifeMu.Lock()
	c.closed.Store(true)
	c.lifeMu.Unlock()
	// Wake pushers blocked on full sinks so they observe the close.
	c.sinksMu.Lock()
	for _, snk := range c.sinks {
		snk.mu.Lock()
		snk.full.Broadcast()
		snk.mu.Unlock()
	}
	c.sinksMu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var all []*Subscription
		for _, subs := range sh.subs {
			all = append(all, subs...)
		}
		sh.mu.Unlock()
		for _, s := range all {
			s.Cancel()
		}
	}
	c.wg.Wait()
}

// Stats returns the local-push and remote-forward counters.
func (c *Channel) Stats() (pushed, forwarded int64) {
	return c.pushed.Load(), c.forwarded.Load()
}

// PlaneStats snapshots the event-plane counters across all sinks and
// subscriptions.
func (c *Channel) PlaneStats() PlaneStats {
	ps := PlaneStats{
		Pushed:            c.pushed.Load(),
		Forwarded:         c.forwarded.Load(),
		SubscriberDropped: c.subDropped.Load(),
	}
	c.sinksMu.Lock()
	defer c.sinksMu.Unlock()
	for _, snk := range c.sinks {
		ps.ForwardBatches += snk.batches.Load()
		ps.ForwardDropped += snk.dropped.Load()
		ps.ForwardErrors += snk.errs.Load()
	}
	return ps
}
