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
	"sync"
	"time"
)

// Errors returned by network operations.
var (
	// ErrClosed is returned when the endpoint has been closed.
	ErrClosed = errors.New("simnet: endpoint closed")
	// ErrRefused is returned by Dial when nothing listens on the port.
	ErrRefused = errors.New("simnet: connection refused")
	// ErrInUse is returned by Listen when the port is taken.
	ErrInUse = errors.New("simnet: address in use")
)

// Closed-endpoint errors, built once: the proxy pumps of every
// forwarded request meet end of stream, so these are on the hot path.
var (
	errRecvClosed     = fmt.Errorf("recv: %w", ErrClosed)
	errSendClosed     = fmt.Errorf("send: %w", ErrClosed)
	errSendPeerClosed = fmt.Errorf("send: peer: %w", ErrClosed)
)

const (
	// backlog bounds a listener's queue of connections not yet
	// accepted (the SYN queue); Dial refuses once it is full.
	backlog = 256
	// mailbox bounds the messages queued at one endpoint and not yet
	// received. HTTP/1.0 carries one request and one response per
	// connection, the fleet proxy forwards them one for one, and a
	// Hold fault parks at most one more: across the test suite,
	// cmd/campaign, meshbench -chaos and the nvbench workloads no
	// mailbox held more than 2 messages, except in this package's
	// unpaced streaming stress tests. The capacity is the smallest
	// power of two at or above twice that. A full mailbox blocks the
	// sender until the peer receives or closes (deliver); only a held
	// message's release drops instead (deliverHeld).
	mailbox = 4
)

// Network is an in-process switched network. The zero value is not
// usable; construct with New.
type Network struct {
	mu        sync.Mutex
	listeners map[uint16]*Listener
	latency   time.Duration
	sleep     func(time.Duration)
	// faults, when non-nil, is consulted once per message send. It is
	// set before any traffic flows (SetFaultInjector) so the data-plane
	// hot path pays exactly one nil check when chaos is disabled.
	faults FaultInjector
	// metrics, when non-nil, counts messages, bytes, and fault
	// verdicts. Same discipline as faults: installed before traffic
	// (SetMetrics), one nil check per send when disabled.
	metrics *Metrics
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
		latency:   latency,
		sleep:     time.Sleep,
	}
}

// Latency returns the configured one-way latency.
func (n *Network) Latency() time.Duration { return n.latency }

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
	return l, nil
}

// Dial connects to the listener on port, returning the client side of
// the connection. A full backlog refuses the connection (SYN-queue
// overflow).
func (n *Network) Dial(port uint16) (*Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[port]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dial %d: %w", port, ErrRefused)
	}
	client, server := newPair(n)
	// Enqueue under the listener lock so a connection can never slip
	// into the backlog after Close has drained it — a raced conn would
	// otherwise strand its dialer in Recv forever.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.isClosed {
		return nil, fmt.Errorf("dial %d: %w", port, ErrRefused)
	}
	select {
	case l.accept <- server:
		return client, nil
	default:
		return nil, fmt.Errorf("dial %d: backlog full: %w", port, ErrRefused)
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

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

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

// message is one unit in flight.
type message struct {
	data    []byte
	readyAt time.Time
}

// Payload buffer pool. Messages cross the network in pooled buffers:
// Send copies the caller's bytes into one, SendOwned hands one over
// without a copy, and the receiver — who owns the buffer from Recv on —
// may return it with PutBuffer once the bytes are consumed. A bounded
// free list (not sync.Pool) keeps Get/Put allocation-free; buffers that
// are never returned are simply collected by the GC.
const (
	// minBufCap is the smallest capacity GetBuffer hands out, sized for
	// a typical request line; response-sized buffers grow past it and
	// keep their capacity when recycled.
	minBufCap = 2048
	// poolSlots bounds how many idle buffers the free list retains.
	poolSlots = 256
)

var bufFree = make(chan []byte, poolSlots)

// GetBuffer returns a length-n buffer from the pool (allocating a
// fresh one only when the pool is empty or too small).
func GetBuffer(n int) []byte {
	select {
	case b := <-bufFree:
		if cap(b) >= n {
			poolHits.Add(1)
			return b[:n]
		}
		// Too small for this message: put it back for smaller traffic
		// and size up. (Mixed small/large workloads would otherwise
		// steadily drain the pool.)
		PutBuffer(b)
	default:
	}
	poolMisses.Add(1)
	c := minBufCap
	for c < n {
		c *= 2
	}
	return make([]byte, n, c)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b
// afterwards — the backing array will be handed to a future Send. Only
// the receiver that obtained b from Recv (or a caller that never sent
// a buffer it got from GetBuffer) may return it.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case bufFree <- b[:0]:
	default: // pool full: let the GC have it
	}
}

// Conn is one endpoint of a bidirectional message connection.
type Conn struct {
	net       *Network
	in        chan message
	peer      *Conn
	closed    chan struct{}
	closeOnce sync.Once

	// faultMu guards held, the parking slot a Hold verdict reorders
	// messages through. Both are touched only when a fault injector is
	// installed.
	faultMu sync.Mutex
	held    *message
}

// newPair allocates both endpoints of a connection in one block.
func newPair(n *Network) (a, b *Conn) {
	pair := new([2]Conn)
	for i := range pair {
		c := &pair[i]
		c.net = n
		c.in = make(chan message, mailbox)
		c.closed = make(chan struct{})
		c.peer = &pair[1-i]
	}
	return &pair[0], &pair[1]
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
// buffer from Recv on (and may PutBuffer it when done). This is the
// zero-copy handoff the fleet dispatcher's proxy pumps use. On error
// the caller keeps ownership.
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

// sendRaw performs the undisturbed send with extra added latency.
func (c *Conn) sendRaw(data []byte, extra time.Duration) error {
	select {
	case <-c.closed:
		return errSendClosed
	case <-c.peer.closed:
		return errSendPeerClosed
	default:
	}
	return c.deliver(message{data: data, readyAt: time.Now().Add(c.net.latency + extra)})
}

// deliver enqueues a ready message at the peer.
func (c *Conn) deliver(msg message) error {
	select {
	case c.peer.in <- msg:
		return nil
	case <-c.peer.closed:
		return errSendPeerClosed
	}
}

// sendFaulty is the injected-fault send path: it asks the injector for
// a verdict and applies drop/delay/truncate/hold before (or instead of)
// delivery. Ownership follows SendOwned's contract — on a nil return
// the wire owns data, even if the verdict destroyed it. A dead
// connection fails before any verdict is drawn, so a Hold or Drop can
// never make a send on a closed endpoint look delivered.
func (c *Conn) sendFaulty(f FaultInjector, data []byte) error {
	select {
	case <-c.closed:
		return errSendClosed
	case <-c.peer.closed:
		return errSendPeerClosed
	default:
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
		msg := &message{data: data, readyAt: time.Now().Add(c.net.latency + v.Delay)}
		c.faultMu.Lock()
		prev := c.held
		c.held = msg
		c.faultMu.Unlock()
		time.AfterFunc(v.Hold, func() { c.releaseHeld(msg) })
		if prev != nil {
			// Two consecutive holds: release the earlier message now, so
			// a message is reordered past at most one successor.
			c.deliverHeld(*prev)
		}
		return nil
	}
	if err := c.sendRaw(data, v.Delay); err != nil {
		return err
	}
	// The successor is on the wire; release any held predecessor after
	// it — the reorder.
	c.faultMu.Lock()
	prev := c.held
	c.held = nil
	c.faultMu.Unlock()
	if prev != nil {
		c.deliverHeld(*prev)
	}
	return nil
}

// deliverHeld releases a parked message without ever blocking: Close
// runs it under callers' locks (the monitor kernel tears descriptors
// down holding its mutex), so a full peer mailbox must lose the
// message — as a congested link would — rather than wedge the caller.
func (c *Conn) deliverHeld(msg message) {
	select {
	case c.peer.in <- msg:
	default:
		PutBuffer(msg.data)
	}
}

// releaseHeld delivers msg if it is still the parked message — the
// hold timer's path; losing the race to a successor send or a close
// (which already released it) is a no-op.
func (c *Conn) releaseHeld(msg *message) {
	c.faultMu.Lock()
	if c.held != msg {
		c.faultMu.Unlock()
		return
	}
	c.held = nil
	c.faultMu.Unlock()
	c.deliverHeld(*msg)
}

// Recv blocks for the next message. It returns (nil, nil) on orderly
// peer close (end of stream), mirroring a zero-byte read. The returned
// buffer is owned by the caller: it may be retained indefinitely,
// handed onward with SendOwned, or returned to the pool with PutBuffer
// once its bytes are consumed.
func (c *Conn) Recv() ([]byte, error) {
	select {
	case msg := <-c.in:
		c.waitWire(msg)
		return msg.data, nil
	case <-c.closed:
		return nil, errRecvClosed
	case <-c.peer.closed:
		// The peer may have sent messages before closing; drain first.
		select {
		case msg := <-c.in:
			c.waitWire(msg)
			return msg.data, nil
		default:
			return nil, nil
		}
	}
}

// waitWire blocks until the message has "crossed the wire".
func (c *Conn) waitWire(msg message) {
	if d := time.Until(msg.readyAt); d > 0 {
		c.net.sleep(d)
	}
}

// PeerClosed returns a channel that is closed once the other endpoint
// has been closed — how a dialer that sends nothing learns the server
// is done with the connection.
func (c *Conn) PeerClosed() <-chan struct{} { return c.peer.closed }

// Close shuts the endpoint down. Peer reads observe end of stream
// after draining in-flight messages. A message still held for
// reordering is released first (it had already entered the wire).
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.net.faults != nil {
			c.faultMu.Lock()
			prev := c.held
			c.held = nil
			c.faultMu.Unlock()
			if prev != nil {
				c.deliverHeld(*prev)
			}
		}
		close(c.closed)
	})
	return nil
}
