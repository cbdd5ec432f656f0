// Package orb is a compact object request broker: the RPC substrate the live
// middleware binding runs on, substituting for the TAO real-time CORBA ORB
// the paper built on. It provides request/reply and one-way invocations on
// named servants over persistent TCP connections with connection reuse.
//
// The wire protocol is a simple length-prefixed framing (see message.go);
// argument bodies are opaque byte slices, encoded by callers (the live event
// plane uses the binary payload codec in internal/live; the deployment and
// reconfiguration control calls use encoding/gob). The broker preserves the
// properties the paper's services rely on: low per-call overhead, in-order
// delivery per connection, and concurrent dispatch of independent requests.
package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler is a servant's dispatch entry point: it receives the operation
// name and the marshaled argument, and returns the marshaled result.
// Returning an error sends an exception reply to the caller.
type Handler func(op string, arg []byte) ([]byte, error)

// Option configures an ORB.
type Option func(*ORB)

// WithInvokeTimeout sets the default deadline applied to Invoke calls that
// have no earlier context deadline. The default is five seconds.
func WithInvokeTimeout(d time.Duration) Option {
	return func(o *ORB) { o.invokeTimeout = d }
}

// WithSendQueueDepth bounds each connection's send queue (default
// DefaultSendQueueDepth). A full queue blocks two-way senders and fails
// non-blocking one-way senders with ErrOverloaded.
func WithSendQueueDepth(n int) Option {
	return func(o *ORB) { o.sendDepth = n }
}

// WithWriteBatch caps how many frames one flush coalesces (default
// DefaultWriteBatch).
func WithWriteBatch(n int) Option {
	return func(o *ORB) { o.writeBatch = n }
}

// WithLegacyWriter selects the pre-batching write path — one locked write
// syscall per message, no send queue. Kept as the reference behavior for
// differential tests and the event-plane benchmark baseline.
func WithLegacyWriter() Option {
	return func(o *ORB) { o.legacyWrites = true }
}

// ORB is one node's object request broker: a server endpoint hosting
// servants plus a client-side connection pool. The zero value is not usable;
// call New.
type ORB struct {
	name          string
	invokeTimeout time.Duration
	sendDepth     int
	writeBatch    int
	legacyWrites  bool
	stats         transportStats

	mu       sync.Mutex
	servants map[string]Handler
	listener net.Listener
	clients  map[string]*clientConn
	inbound  map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// New returns an ORB named for diagnostics.
func New(name string, opts ...Option) *ORB {
	o := &ORB{
		name:          name,
		invokeTimeout: 5 * time.Second,
		sendDepth:     DefaultSendQueueDepth,
		writeBatch:    DefaultWriteBatch,
		servants:      make(map[string]Handler),
		clients:       make(map[string]*clientConn),
		inbound:       make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// TransportStats snapshots the write-path counters across all of the ORB's
// connections: frames, flush syscalls (their ratio is the achieved batching
// factor), bytes, and refused overload sends.
func (o *ORB) TransportStats() TransportStats { return o.stats.snapshot() }

// newSender builds the configured write path for one connection.
func (o *ORB) newSender(conn net.Conn) frameSender {
	if o.legacyWrites {
		return &legacyWriter{conn: conn, stats: &o.stats}
	}
	return newConnWriter(conn, o.sendDepth, o.writeBatch, &o.stats, &o.wg)
}

// Name returns the ORB's diagnostic name.
func (o *ORB) Name() string { return o.name }

// RegisterServant binds a handler to an object key. Registering an existing
// key replaces the previous servant.
func (o *ORB) RegisterServant(key string, h Handler) {
	if h == nil {
		panic("orb: nil handler")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[key] = h
}

// lookup finds a servant.
func (o *ORB) lookup(key string) (Handler, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.servants[key]
	return h, ok
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. It may be called at most once.
func (o *ORB) Listen(addr string) (net.Addr, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return nil, errors.New("orb: already shut down")
	}
	if o.listener != nil {
		return nil, errors.New("orb: already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb %s: listen: %w", o.name, err)
	}
	o.listener = ln
	o.wg.Add(1)
	go o.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the bound listen address, or nil before Listen.
func (o *ORB) Addr() net.Addr {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.listener == nil {
		return nil
	}
	return o.listener.Addr()
}

// acceptLoop serves inbound connections until the listener closes.
func (o *ORB) acceptLoop(ln net.Listener) {
	defer o.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			conn.Close()
			return
		}
		o.inbound[conn] = struct{}{}
		o.mu.Unlock()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer func() {
				o.mu.Lock()
				delete(o.inbound, conn)
				o.mu.Unlock()
			}()
			o.serveConn(conn)
		}()
	}
}

// serveConn reads requests off one inbound connection and dispatches them.
// Replies go through the connection's frame sender, so concurrent handlers
// cannot interleave frames and bursts of replies coalesce into one flush.
func (o *ORB) serveConn(conn net.Conn) {
	defer conn.Close()
	sender := o.newSender(conn)
	defer sender.close()
	for {
		msg, err := readMessage(conn)
		if err != nil {
			return
		}
		switch msg.kind {
		case msgRequest, msgOneWay:
			o.wg.Add(1)
			go func(m message) {
				defer o.wg.Done()
				o.dispatch(sender, m)
			}(msg)
		default:
			// Unexpected message kind on a server connection; drop it.
		}
	}
}

// dispatch invokes the servant and, for two-way requests, writes the reply.
func (o *ORB) dispatch(sender frameSender, m message) {
	h, ok := o.lookup(m.key)
	var (
		body []byte
		err  error
	)
	if !ok {
		err = fmt.Errorf("orb %s: no servant %q", o.name, m.key)
	} else {
		body, err = h(m.op, m.body)
	}
	if m.kind == msgOneWay {
		return
	}
	reply := message{kind: msgReply, id: m.id}
	if err != nil {
		reply.status = statusException
		reply.body = []byte(err.Error())
	} else {
		reply.status = statusOK
		reply.body = body
	}
	// Replies block on a full queue (bounded by the queue depth, never
	// dropped); write errors are ignored — the peer tears the connection
	// down and retries.
	_ = sender.send(reply, true)
}

// Invoke performs a two-way invocation on the servant key at addr. The
// context bounds the call; without a deadline the ORB's invoke timeout
// applies.
func (o *ORB) Invoke(ctx context.Context, addr, key, op string, arg []byte) ([]byte, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.invokeTimeout)
		defer cancel()
	}
	cc, err := o.client(addr)
	if err != nil {
		return nil, err
	}
	return cc.invoke(ctx, key, op, arg)
}

// InvokeOneWay sends a request without waiting for a reply (the event-push
// pattern of the federated event channel). A full send queue applies
// backpressure by blocking until the writer drains or the connection dies.
func (o *ORB) InvokeOneWay(addr, key, op string, arg []byte) error {
	cc, err := o.client(addr)
	if err != nil {
		return err
	}
	return cc.oneWay(key, op, arg, true)
}

// TryInvokeOneWay is InvokeOneWay with fail-fast overload semantics: when
// the connection's bounded send queue is full it returns ErrOverloaded
// immediately instead of blocking, so best-effort paths can shed load
// explicitly.
func (o *ORB) TryInvokeOneWay(addr, key, op string, arg []byte) error {
	cc, err := o.client(addr)
	if err != nil {
		return err
	}
	return cc.oneWay(key, op, arg, false)
}

// client returns (dialing if necessary) the pooled connection to addr.
func (o *ORB) client(addr string) (*clientConn, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, errors.New("orb: shut down")
	}
	cc, ok := o.clients[addr]
	if ok && !cc.broken() {
		o.mu.Unlock()
		return cc, nil
	}
	o.mu.Unlock()

	// Dial outside the lock; racing dials are reconciled below.
	nc, err := net.DialTimeout("tcp", addr, o.invokeTimeout)
	if err != nil {
		return nil, fmt.Errorf("orb %s: dial %s: %w", o.name, addr, err)
	}
	fresh := newClientConn(nc)

	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		nc.Close()
		return nil, errors.New("orb: shut down")
	}
	if cur, ok := o.clients[addr]; ok && !cur.broken() {
		nc.Close()
		return cur, nil
	}
	fresh.writer = o.newSender(nc)
	o.clients[addr] = fresh
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		fresh.readLoop()
	}()
	return fresh, nil
}

// Shutdown closes the listener and all connections and waits for every
// served request and background goroutine to finish.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		o.wg.Wait()
		return
	}
	o.closed = true
	ln := o.listener
	clients := make([]*clientConn, 0, len(o.clients))
	for _, cc := range o.clients {
		clients = append(clients, cc)
	}
	served := make([]net.Conn, 0, len(o.inbound))
	for conn := range o.inbound {
		served = append(served, conn)
	}
	o.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, cc := range clients {
		cc.close()
	}
	for _, conn := range served {
		conn.Close()
	}
	o.wg.Wait()
}
