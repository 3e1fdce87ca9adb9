// Package simnet provides the in-process network the N-variant server
// and its clients communicate over.
//
// In the paper's testbed, WebBench clients talk to the server across a
// switched LAN; the unsaturated results are I/O-bound because of that
// wire. simnet reproduces the shape with a message-oriented connection
// abstraction and a configurable one-way latency. The monitor kernel
// performs network input syscalls once and replicates the received
// bytes to every variant, so clients are oblivious to how many
// variants serve them — exactly the paper's architecture (Figure 1).
//
// Two bounds shape the data plane. backlog is the listener's SYN
// queue: a Dial that finds it full is refused. mailbox is each
// connection endpoint's inbound queue: a Send that finds the peer's
// full blocks until the peer receives or closes.
package simnet

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Errors returned by network operations.
var (
	// ErrClosed is returned when the endpoint has been closed.
	ErrClosed = errors.New("simnet: endpoint closed")
	// ErrRefused is returned by Dial and Handoff when the port has no
	// open listener or its backlog is full.
	ErrRefused = errors.New("simnet: connection refused")
	// ErrInUse is returned by Listen when the port is taken.
	ErrInUse = errors.New("simnet: address in use")
	// ErrPeerClosed is returned by a send whose peer has closed: the
	// other side hung up, not this endpoint. It is also ErrClosed.
	ErrPeerClosed = fmt.Errorf("peer: %w", ErrClosed)
)

// Closed-endpoint errors, built once: they carry no per-call detail,
// so a send or receive that meets a closed endpoint allocates nothing.
var (
	errRecvClosed     = fmt.Errorf("recv: %w", ErrClosed)
	errSendClosed     = fmt.Errorf("send: %w", ErrClosed)
	errSendPeerClosed = fmt.Errorf("send: %w", ErrPeerClosed)
)

const (
	// backlog bounds a listener's queue of connections not yet
	// accepted (the SYN queue); Dial and Handoff refuse once it is
	// full.
	backlog = 256
	// mailbox bounds the messages queued at one endpoint and not yet
	// received. HTTP/1.0 carries one request and one response per
	// connection, and a Hold fault parks at most one more: across the
	// test suite, cmd/campaign (group and -mesh) and the nvbench
	// workloads no mailbox held more than 2 messages, except in this
	// package's unpaced streaming stress tests. The capacity is the
	// smallest power of two at or above twice that. Each endpoint
	// holds its mailbox inline, as a ring under the lock the two
	// endpoints share, so a connection is one allocation (newPair);
	// the Done channels are made only when asked for. A full mailbox
	// blocks the sender until the peer receives or closes (sendRaw);
	// only a held message's release drops instead (releaseHeld). An
	// endpoint's own close wins over its peer's: a send on it fails
	// with errSendClosed, and a receive fails even with messages
	// queued.
	mailbox = 4
)

// Network is an in-process switched network. The zero value is not
// usable; construct with New.
type Network struct {
	mu        sync.Mutex
	listeners map[uint16]*Listener
	latency   time.Duration
	// faults, when non-nil, is consulted once per message send. It is
	// set before any traffic flows (SetFaultInjector) so the data-plane
	// hot path pays exactly one nil check when chaos is disabled.
	faults FaultInjector
	// metrics, when non-nil, counts messages, bytes, and fault
	// verdicts. Same discipline as faults: installed before traffic
	// (SetMetrics), one nil check per send when disabled.
	metrics *Metrics

	// awaited holds the channels Listening handed out for ports with no
	// listener yet (under mu); Listen closes and drops a port's channel.
	awaited map[uint16]chan struct{}
}

// Fault is the injector's verdict for one message crossing the wire.
// The zero value delivers the message untouched.
type Fault struct {
	// Drop severs the connection instead of delivering the message —
	// the link-failure model: the receiver observes end of stream, the
	// sender's next operation fails with ErrClosed. (Silently vanishing
	// a message would strand closed-loop peers in Recv forever, which no
	// real network does to a connection-oriented caller.)
	Drop bool
	// Delay adds extra one-way latency on top of the network's
	// configured latency.
	Delay time.Duration
	// TruncateTo, when in (0, len(payload)), delivers only the leading
	// TruncateTo bytes of the message.
	TruncateTo int
	// Hold, when positive, parks the message until the sender's next
	// message on the same connection — which is then delivered first,
	// an adjacent-message reorder — or until Hold elapses or the
	// endpoint closes, whichever comes first. The time bound keeps a
	// held message with no successor from stranding a closed-loop
	// receiver forever.
	Hold time.Duration
}

// FaultInjector decides the fate of each message entering the wire.
// Implementations must be safe for concurrent use; the chaos package
// provides seeded deterministic implementations.
type FaultInjector interface {
	// FaultFor is called once per message send with the payload size.
	FaultFor(size int) Fault
}

// SetFaultInjector installs a fault injector on the network. It must be
// called before any traffic flows (there is no synchronization with
// in-flight sends); passing nil leaves the network fault-free.
func (n *Network) SetFaultInjector(f FaultInjector) { n.faults = f }

// New creates a network whose messages take latency to cross the wire
// in each direction.
func New(latency time.Duration) *Network {
	return &Network{
		listeners: make(map[uint16]*Listener),
		awaited:   make(map[uint16]chan struct{}),
		latency:   latency,
	}
}

// Listen opens a listening socket on port.
func (n *Network) Listen(port uint16) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[port]; taken {
		return nil, fmt.Errorf("listen %d: %w", port, ErrInUse)
	}
	l := &Listener{
		net:    n,
		port:   port,
		accept: make(chan *Conn, backlog),
		closed: make(chan struct{}),
	}
	n.listeners[port] = l
	if ch, ok := n.awaited[port]; ok {
		close(ch)
		delete(n.awaited, port)
	}
	return l, nil
}

// Listening returns a channel that is closed once a listener is open on
// port (at once if one already is): a caller waiting for a server to
// come up blocks on it instead of polling Dial on a timer.
func (n *Network) Listening(port uint16) <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ch, ok := n.awaited[port]; ok {
		return ch
	}
	ch := make(chan struct{})
	if _, up := n.listeners[port]; up {
		close(ch)
	} else {
		n.awaited[port] = ch
	}
	return ch
}

// Dial connects to the listener on port, returning the client side of
// the connection. A full backlog refuses the connection (SYN-queue
// overflow).
func (n *Network) Dial(port uint16) (*Conn, error) {
	client, server := newPair(n)
	if err := n.enqueue("dial", port, server); err != nil {
		return nil, err
	}
	return client, nil
}

// Handoff queues c, the server end of a connection accepted elsewhere
// on this network, on the listener of port, as if c's peer had dialed
// that port: the listener's Accept returns c itself, and c's peer now
// talks to whoever accepts it. Handoff refuses with ErrRefused in the
// cases Dial does (no listener, listener closed, backlog full); the
// caller then still owns c, untouched, and may hand it elsewhere.
func (n *Network) Handoff(port uint16, c *Conn) error {
	return n.enqueue("handoff", port, c)
}

// enqueue queues server on port's listener backlog. It enqueues under
// the listener lock so a connection can never slip into the backlog
// after Close has drained it — a raced conn would otherwise strand its
// peer in Recv forever.
func (n *Network) enqueue(op string, port uint16, server *Conn) error {
	n.mu.Lock()
	l, ok := n.listeners[port]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s %d: %w", op, port, ErrRefused)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.isClosed {
		return fmt.Errorf("%s %d: %w", op, port, ErrRefused)
	}
	select {
	case l.accept <- server:
		return nil
	default:
		return fmt.Errorf("%s %d: backlog full: %w", op, port, ErrRefused)
	}
}

// ShutdownPort closes the listener on port from outside the serving
// process — the harness's way of stopping an N-variant server whose
// monitor may be blocked in accept (the paper's launcher kills the
// group; closing the port gives us an orderly equivalent).
func (n *Network) ShutdownPort(port uint16) error {
	n.mu.Lock()
	l, ok := n.listeners[port]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("shutdown %d: %w", port, ErrRefused)
	}
	return l.Close()
}

// Listener accepts inbound connections on a port.
type Listener struct {
	net       *Network
	port      uint16
	accept    chan *Conn
	closed    chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	isClosed bool
}

// Accept blocks until a connection arrives or the listener is closed.
func (l *Listener) Accept() (*Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		// Drain any connection racing with close.
		select {
		case c := <-l.accept:
			return c, nil
		default:
			return nil, fmt.Errorf("accept %d: %w", l.port, ErrClosed)
		}
	}
}

// Close releases the port, unblocks pending Accept calls, and closes
// connections still queued in the backlog — their dialers observe a
// drop (as from a crashed server) instead of hanging.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.isClosed = true
		close(l.closed)
		l.mu.Unlock()
		l.net.mu.Lock()
		delete(l.net.listeners, l.port)
		l.net.mu.Unlock()
		for {
			select {
			case c := <-l.accept:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// message is one unit in flight. A zero readyAt means the message was
// ready when sent, so a zero-latency network never reads the clock.
type message struct {
	data    []byte
	readyAt time.Time
}

// Payload buffer pool. Messages cross the network in pooled buffers:
// Send copies the caller's bytes into one, SendOwned hands one over
// without a copy, and the receiver — who owns the buffer from Recv on —
// may return it with PutBuffer once the bytes are consumed. Bounded
// free lists (not sync.Pool) keep Get/Put allocation-free; buffers that
// are never returned are simply collected by the GC. There is one free
// list per power-of-two capacity, so an idle request-sized buffer never
// stands in front of a response-sized message (which would allocate
// afresh, at a rate set by goroutine interleaving).
const (
	// minBufCap is the smallest capacity GetBuffer hands out, sized for
	// a typical request line.
	minBufCap = 2048
	// bufClasses is the number of pooled capacities, minBufCap<<c for
	// c < bufClasses (2 KiB to 256 KiB); larger buffers are not pooled.
	bufClasses = 8
	// classSlots bounds how many idle buffers each free list retains.
	classSlots = 64
)

var bufFree = func() (lists [bufClasses]chan []byte) {
	for c := range lists {
		lists[c] = make(chan []byte, classSlots)
	}
	return lists
}()

// GetBuffer returns a length-n buffer from the pool (allocating a
// fresh one only when its size class has none idle).
func GetBuffer(n int) []byte {
	c := 0
	for minBufCap<<c < n {
		c++
	}
	if c < bufClasses {
		select {
		case b := <-bufFree[c]:
			poolHits.Add(1)
			return b[:n]
		default:
		}
	}
	poolMisses.Add(1)
	return make([]byte, n, minBufCap<<c)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b
// afterwards — the backing array will be handed to a future Send. Only
// the receiver that obtained b from Recv (or a caller that never sent
// a buffer it got from GetBuffer) may return it.
func PutBuffer(b []byte) {
	// The largest class whose capacity b covers.
	c := bits.Len(uint(cap(b)/minBufCap)) - 1
	if c < 0 || c >= bufClasses {
		return
	}
	select {
	case bufFree[c] <- b[:0]:
	default: // list full: let the GC have it
	}
}

// closedDone is what Done returns for an endpoint that closed before
// anyone asked for its channel.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// pair is one connection: both endpoints and the lock they share, in
// one allocation.
type pair struct {
	mu   sync.Mutex
	ends [2]Conn
}

// Conn is one endpoint of a bidirectional message connection.
type Conn struct {
	net  *Network
	peer *Conn
	// mu is the pair lock, shared with peer. It guards the fields
	// below on both endpoints and is never held across a call out of
	// the package.
	mu *sync.Mutex
	// ready is broadcast when c's mailbox gains or loses a message and
	// when either endpoint closes: c's Recv waits on it for a message,
	// the peer's send for room.
	ready sync.Cond
	// box is the mailbox: a ring of n messages starting at head.
	box     [mailbox]message
	head, n int
	closed  bool
	// done is Done's channel, made on its first call while c is open
	// and closed by Close.
	done chan struct{}
	// held is the message a Hold verdict parks for reordering; it is
	// only ever set when a fault injector is installed.
	held *message
}

// newPair allocates both endpoints of a connection in one block.
func newPair(n *Network) (a, b *Conn) {
	p := new(pair)
	for i := range p.ends {
		c := &p.ends[i]
		c.net = n
		c.peer = &p.ends[1-i]
		c.mu = &p.mu
		c.ready.L = &p.mu
	}
	return &p.ends[0], &p.ends[1]
}

// push appends msg to c's mailbox and reports whether it had room.
// The caller holds the pair lock.
func (c *Conn) push(msg message) bool {
	if c.n == mailbox {
		return false
	}
	c.box[(c.head+c.n)%mailbox] = msg
	c.n++
	c.ready.Broadcast()
	return true
}

// sendErr reports why c cannot send, its own close before its peer's.
// The caller holds the pair lock.
func (c *Conn) sendErr() error {
	switch {
	case c.closed:
		return errSendClosed
	case c.peer.closed:
		return errSendPeerClosed
	}
	return nil
}

// Send transmits data to the peer. The data is copied (into a pooled
// buffer), so the caller may reuse its own buffer immediately.
func (c *Conn) Send(data []byte) error {
	buf := GetBuffer(len(data))
	copy(buf, data)
	if err := c.SendOwned(buf); err != nil {
		PutBuffer(buf)
		return err
	}
	return nil
}

// SendOwned transmits data to the peer without copying: ownership of
// the backing array passes with the message, so the caller must not
// read or write data after a nil return. The receiving side owns the
// buffer from Recv on (and may PutBuffer it when done). The monitor
// kernel sends each response this way, from the buffer it gathered the
// payload into. On error the caller keeps ownership.
func (c *Conn) SendOwned(data []byte) error {
	if m := c.net.metrics; m != nil {
		m.messages.Inc()
		m.bytes.Add(uint64(len(data)))
	}
	if f := c.net.faults; f != nil {
		return c.sendFaulty(f, data)
	}
	return c.sendRaw(data, 0)
}

// stamp returns when a message sent now with extra added latency has
// crossed the wire, or the zero time when it crosses at once.
func (c *Conn) stamp(extra time.Duration) time.Time {
	if d := c.net.latency + extra; d > 0 {
		return time.Now().Add(d)
	}
	return time.Time{}
}

// sendRaw performs the undisturbed send with extra added latency. A
// full peer mailbox blocks it until the peer receives or closes.
func (c *Conn) sendRaw(data []byte, extra time.Duration) error {
	msg := message{data: data, readyAt: c.stamp(extra)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sendErr(); err != nil {
		return err
	}
	for !c.peer.push(msg) {
		c.peer.ready.Wait()
		if c.peer.closed {
			return errSendPeerClosed
		}
	}
	return nil
}

// sendFaulty is the injected-fault send path: it asks the injector for
// a verdict and applies drop/delay/truncate/hold before (or instead of)
// delivery. Ownership follows SendOwned's contract — on a nil return
// the wire owns data, even if the verdict destroyed it. A dead
// connection fails before any verdict is drawn, so a Hold or Drop can
// never make a send on a closed endpoint look delivered.
func (c *Conn) sendFaulty(f FaultInjector, data []byte) error {
	c.mu.Lock()
	err := c.sendErr()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	v := f.FaultFor(len(data))
	if m := c.net.metrics; m != nil {
		m.countFault(v, len(data))
	}
	if v.Drop {
		// Link failure: the message is lost with the connection. The
		// receiver drains anything already in flight and then observes
		// end of stream; the sender's next operation fails.
		PutBuffer(data)
		_ = c.Close()
		return nil
	}
	if v.TruncateTo > 0 && v.TruncateTo < len(data) {
		data = data[:v.TruncateTo]
	}
	if v.Hold > 0 {
		msg := &message{data: data, readyAt: c.stamp(v.Delay)}
		c.mu.Lock()
		// Two consecutive holds: release the earlier message now, so a
		// message is reordered past at most one successor.
		lost := c.releaseHeld()
		c.held = msg
		c.mu.Unlock()
		PutBuffer(lost)
		time.AfterFunc(v.Hold, func() { c.releaseOnTimer(msg) })
		return nil
	}
	if err := c.sendRaw(data, v.Delay); err != nil {
		return err
	}
	// The successor is on the wire; release any held predecessor after
	// it — the reorder.
	c.mu.Lock()
	lost := c.releaseHeld()
	c.mu.Unlock()
	PutBuffer(lost)
	return nil
}

// releaseHeld moves the held message, if any, into the peer's mailbox
// without ever blocking: Close runs it under callers' locks (the
// monitor kernel tears descriptors down holding its mutex), so a full
// peer mailbox must lose the message — as a congested link would —
// rather than wedge the caller. It returns a lost message's buffer for
// the caller to recycle once it has released the pair lock, which it
// holds.
func (c *Conn) releaseHeld() (lost []byte) {
	h := c.held
	if h == nil {
		return nil
	}
	c.held = nil
	if !c.peer.push(*h) {
		return h.data
	}
	return nil
}

// releaseOnTimer releases msg if it is still the held message — the
// hold timer's path; losing the race to a successor send or a close
// (which already released it) is a no-op.
func (c *Conn) releaseOnTimer(msg *message) {
	c.mu.Lock()
	var lost []byte
	if c.held == msg {
		lost = c.releaseHeld()
	}
	c.mu.Unlock()
	PutBuffer(lost)
}

// Recv blocks for the next message. It returns (nil, nil) on orderly
// peer close or after CloseRead (end of stream), mirroring a zero-byte
// read, and ErrClosed once c itself is closed, even with messages
// still queued. The returned buffer is owned by the caller: it may be
// retained indefinitely, handed onward with SendOwned, or returned to
// the pool with PutBuffer once its bytes are consumed.
func (c *Conn) Recv() ([]byte, error) {
	c.mu.Lock()
	for c.n == 0 && !c.closed && !c.peer.closed {
		c.ready.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return nil, errRecvClosed
	}
	if c.n == 0 {
		// The peer closed and everything it sent has been read.
		c.mu.Unlock()
		return nil, nil
	}
	msg := c.box[c.head]
	c.box[c.head] = message{}
	c.head = (c.head + 1) % mailbox
	c.n--
	c.ready.Broadcast() // room for the peer's send
	c.mu.Unlock()
	if !msg.readyAt.IsZero() {
		// Wait until the message has "crossed the wire".
		if d := time.Until(msg.readyAt); d > 0 {
			time.Sleep(d)
		}
	}
	return msg.data, nil
}

// PeerClosed returns a channel that is closed once the other endpoint
// has been closed — how a dialer that sends nothing learns the server
// is done with the connection. It is the peer's Done channel.
func (c *Conn) PeerClosed() <-chan struct{} { return c.peer.Done() }

// Done returns a channel that is closed once this endpoint has been
// closed: by whoever holds it, by a Drop fault on its own sends, or by
// its listener closing while it waits in the backlog. It mirrors
// PeerClosed; a caller that handed c off waits on it to learn the
// exchange is over. The channel is made on the first call, so a
// connection nobody waits on allocates none.
func (c *Conn) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return closedDone
	}
	if c.done == nil {
		c.done = make(chan struct{})
	}
	return c.done
}

// CloseRead ends c's input, as a peer that shuts down its sending side
// does: once the messages already queued at c are read, the next Recv
// returns end of stream. c's own sends still reach the peer, so an
// exchange whose request was already read completes. A caller that
// handed c off ends the connection this way without failing the new
// holder's pending read or its response, which closing either
// endpoint would. With c's mailbox full the reader has input pending
// and CloseRead does nothing.
func (c *Conn) CloseRead() {
	c.mu.Lock()
	c.push(message{})
	c.mu.Unlock()
}

// Close shuts the endpoint down. Peer reads observe end of stream
// after draining in-flight messages. A message still held for
// reordering is released first (it had already entered the wire).
// Close never blocks.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	lost := c.releaseHeld()
	c.closed = true
	if c.done != nil {
		close(c.done)
	}
	c.ready.Broadcast()
	c.peer.ready.Broadcast()
	c.mu.Unlock()
	PutBuffer(lost)
	return nil
}
