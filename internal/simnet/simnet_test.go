package simnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestListeningSignalsListen(t *testing.T) {
	n := New(0)
	waiting := n.Listening(81)
	select {
	case <-waiting:
		t.Fatal("Listening closed before any listener")
	default:
	}
	if n.Listening(81) != waiting {
		t.Error("second waiter got a different channel")
	}
	l, err := n.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	select {
	case <-waiting:
	default:
		t.Fatal("Listen did not close the waiters' channel")
	}
	select {
	case <-n.Listening(81):
	default:
		t.Fatal("Listening on an open port must be closed at once")
	}
}

func TestListenDialRoundTrip(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		msg, err := server.Recv()
		if err != nil {
			t.Errorf("server Recv: %v", err)
			return
		}
		if err := server.Send(append([]byte("echo:"), msg...)); err != nil {
			t.Errorf("server Send: %v", err)
		}
		_ = server.Close()
	}()

	client, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hi" {
		t.Errorf("reply = %q", reply)
	}
	_ = client.Close()
	wg.Wait()
}

func TestDialRefused(t *testing.T) {
	n := New(0)
	if _, err := n.Dial(9999); !errors.Is(err, ErrRefused) {
		t.Errorf("Dial = %v, want ErrRefused", err)
	}
}

func TestListenInUse(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if _, err := n.Listen(80); !errors.Is(err, ErrInUse) {
		t.Errorf("second Listen = %v, want ErrInUse", err)
	}
}

func TestListenerCloseReleasesPort(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := n.Listen(80)
	if err != nil {
		t.Errorf("Listen after Close: %v", err)
	} else {
		_ = l2.Close()
	}
}

func TestAcceptUnblocksOnClose(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

func TestRecvEOFOnPeerClose(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		_ = s.Send([]byte("last"))
		_ = s.Close()
	}()
	c, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	// First Recv drains the in-flight message.
	msg, err := c.Recv()
	if err != nil || string(msg) != "last" {
		t.Fatalf("Recv = (%q, %v)", msg, err)
	}
	// Second Recv observes end of stream: (nil, nil).
	msg, err = c.Recv()
	if err != nil || msg != nil {
		t.Errorf("Recv after peer close = (%v, %v), want (nil, nil)", msg, err)
	}

	// CloseRead ends a reader's input after what is already queued,
	// and the reader's sends still reach the peer.
	c, err = n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 2)
	go func() {
		for i := 0; i < 2; i++ {
			msg, err := s.Recv()
			if err != nil {
				got <- err.Error()
				continue
			}
			got <- string(msg)
		}
	}()
	s.CloseRead()
	if a, b := <-got, <-got; a != "queued" || b != "" {
		t.Errorf("Recv across CloseRead = %q then %q, want the queued message then end of stream", a, b)
	}
	if err := s.Send([]byte("reply")); err != nil {
		t.Fatalf("send after CloseRead: %v", err)
	}
	if msg, err := c.Recv(); err != nil || string(msg) != "reply" {
		t.Errorf("peer Recv after CloseRead = (%q, %v), want the reply", msg, err)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		s, err := l.Accept()
		if err == nil {
			_ = s.Close()
		}
	}()
	c, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := c.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	recvd := make(chan []byte, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		m, _ := s.Recv()
		recvd <- m
	}()
	c, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	if err := c.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBERED")
	got := <-recvd
	if string(got) != "original" {
		t.Errorf("received %q; Send must copy", got)
	}
}

func TestLatencyApplied(t *testing.T) {
	const lat = 20 * time.Millisecond
	n := New(lat)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		_ = s.Send([]byte("pong"))
	}()
	c, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("Recv returned after %v, want >= %v", elapsed, lat)
	}
}

func TestConcurrentClients(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	const clients = 32
	var serverWG sync.WaitGroup
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		for i := 0; i < clients; i++ {
			s, err := l.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			go func() {
				m, err := s.Recv()
				if err == nil {
					_ = s.Send(m)
				}
				_ = s.Close()
			}()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial(80)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			payload := []byte{byte(i)}
			if err := c.Send(payload); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
			got, err := c.Recv()
			if err != nil || len(got) != 1 || got[0] != byte(i) {
				t.Errorf("client %d Recv = (%v, %v)", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	serverWG.Wait()
}

func TestDialAfterCloseRefused(t *testing.T) {
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial(80); !errors.Is(err, ErrRefused) {
		t.Errorf("dial after close = %v, want ErrRefused", err)
	}
}

func TestDialBacklogFullRefused(t *testing.T) {
	n := New(0)
	if _, err := n.Listen(80); err != nil {
		t.Fatal(err)
	}
	// Fill the backlog without accepting.
	for i := 0; i < backlog; i++ {
		if _, err := n.Dial(80); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if _, err := n.Dial(80); !errors.Is(err, ErrRefused) {
		t.Errorf("dial on full backlog = %v, want ErrRefused", err)
	}
}

func TestQueuedConnsClosedOnListenerClose(t *testing.T) {
	// A connection queued in the backlog when the listener closes must
	// observe end-of-stream, not hang in Recv — the stranded-dialer
	// case the fleet dispatcher's shutdown depends on. A handed-off
	// connection is queued the same way: its endpoint closes, so Done
	// fires, and its peer reads end of stream.
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("request")); err != nil {
		t.Fatal(err)
	}
	client, handed := acceptedPair(t, n, 81)
	if err := n.Handoff(80, handed); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handed.Done():
	default:
		t.Error("handed-off conn still open after its listener closed")
	}
	for _, dialer := range []*Conn{c, client} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if got, err := dialer.Recv(); err == nil && got != nil {
				t.Errorf("Recv = %q, want end of stream or error", got)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("dialer hung in Recv after listener close")
		}
	}
}

// acceptedPair dials a fresh listener on port and accepts the
// connection, returning the dialer's end and the accepted server end —
// the connection a front door hands on. The listener is closed again,
// which leaves the accepted connection open.
func acceptedPair(t *testing.T, n *Network, port uint16) (client, server *Conn) {
	t.Helper()
	l, err := n.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	client, err = n.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

// TestHandoffRefused: Handoff refuses where Dial does — no listener,
// a closed listener, a full backlog — and the refused connection stays
// the caller's, open and usable: handed on to a live listener, it
// carries the dialer's request to whoever accepts it there and the
// reply back.
func TestHandoffRefused(t *testing.T) {
	n := New(0)
	client, handed := acceptedPair(t, n, 80)

	if err := n.Handoff(9999, handed); !errors.Is(err, ErrRefused) {
		t.Errorf("handoff to a port with no listener = %v, want ErrRefused", err)
	}
	closed, err := n.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	_ = closed.Close()
	if err := n.Handoff(81, handed); !errors.Is(err, ErrRefused) {
		t.Errorf("handoff to a closed listener = %v, want ErrRefused", err)
	}
	full, err := n.Listen(82)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = full.Close() }()
	for i := 0; i < backlog; i++ {
		if _, err := n.Dial(82); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if err := n.Handoff(82, handed); !errors.Is(err, ErrRefused) {
		t.Errorf("handoff on a full backlog = %v, want ErrRefused", err)
	}
	select {
	case <-handed.Done():
		t.Fatal("a refused handoff closed the connection")
	default:
	}

	backend, err := n.Listen(83)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = backend.Close() }()
	if err := n.Handoff(83, handed); err != nil {
		t.Fatalf("handoff after refusals: %v", err)
	}
	server, err := backend.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if server != handed {
		t.Fatal("Accept did not return the handed-off connection")
	}
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if msg, err := server.Recv(); err != nil || string(msg) != "ping" {
		t.Fatalf("backend Recv = %q, %v", msg, err)
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	if msg, err := client.Recv(); err != nil || string(msg) != "pong" {
		t.Fatalf("client Recv = %q, %v", msg, err)
	}
	if msg, err := client.Recv(); err != nil || msg != nil {
		t.Errorf("client Recv after the backend closed = %q, %v; want end of stream", msg, err)
	}
	select {
	case <-server.Done():
	default:
		t.Error("Done not closed after Close")
	}
}

// TestHandoffRacesListenerClose races Handoff against Listener.Close:
// every connection a Handoff queued must end up accepted or closed,
// never stranded in a backlog nobody drains. Run under -race -count=20.
func TestHandoffRacesListenerClose(t *testing.T) {
	const rounds, handers, perHander = 50, 4, 8
	n := New(0)
	for r := 0; r < rounds; r++ {
		conns := make([]*Conn, handers*perHander)
		for i := range conns {
			_, conns[i] = newPair(n)
		}
		l, err := n.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		// Odd rounds accept concurrently; even rounds leave every
		// queued connection to Close's drain.
		accepted := make(map[*Conn]bool)
		acceptDone := make(chan struct{})
		go func() {
			defer close(acceptDone)
			for r%2 == 1 {
				c, err := l.Accept()
				if err != nil {
					return
				}
				accepted[c] = true
			}
		}()
		handedOff := make([][]*Conn, handers)
		var wg sync.WaitGroup
		for h := 0; h < handers; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for _, c := range conns[h*perHander : (h+1)*perHander] {
					if n.Handoff(80, c) == nil {
						handedOff[h] = append(handedOff[h], c)
					}
					runtime.Gosched()
				}
			}(h)
		}
		runtime.Gosched()
		_ = l.Close()
		wg.Wait()
		<-acceptDone
		for _, list := range handedOff {
			for _, c := range list {
				select {
				case <-c.Done():
				default:
					if !accepted[c] {
						t.Fatalf("round %d: a handed-off conn was neither accepted nor closed", r)
					}
				}
			}
		}
	}
}

// TestConnExchangeAllocBound pins the per-connection cost: one Dial,
// one message each way and both Closes. Both endpoints, their inline
// mailboxes and the lock they share are one block, and payloads travel
// in pooled buffers, so the whole exchange is one 640 B allocation.
func TestConnExchangeAllocBound(t *testing.T) {
	const maxBytes, maxAllocs = 640, 1
	n := New(0)
	l, err := n.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	pass := func(from, to *Conn, msg string) {
		if err := from.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		got, err := to.Recv()
		if err != nil || string(got) != msg {
			t.Fatalf("Recv = %q, %v; want %q", got, err, msg)
		}
		PutBuffer(got)
	}
	exchange := func() {
		client, err := n.Dial(80)
		if err != nil {
			t.Fatal(err)
		}
		server, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		pass(client, server, "GET / HTTP/1.0\r\n\r\n")
		pass(server, client, "HTTP/1.0 200 OK\r\n\r\n")
		_ = client.Close()
		_ = server.Close()
	}
	exchange() // warm the buffer pool

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, exchange)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one extra warm-up call.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("per connection: %.0f allocs, %.0f B", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("per connection: %.0f allocs, %.0f B; want <= %d allocs and <= %d B",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestSendBlocksOnFullMailbox pins the backpressure contract: once the
// peer's mailbox is full, Send waits until the peer receives, and
// fails with ErrClosed instead if the peer closes.
func TestSendBlocksOnFullMailbox(t *testing.T) {
	for _, peerCloses := range []bool{false, true} {
		n := New(0)
		client, server := newPair(n)
		for i := 0; i < mailbox; i++ {
			if err := client.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		sent := make(chan error, 1)
		go func() { sent <- client.Send([]byte("over")) }()
		select {
		case err := <-sent:
			t.Fatalf("Send into a full mailbox returned %v without waiting", err)
		case <-time.After(20 * time.Millisecond):
		}
		if peerCloses {
			_ = server.Close()
			if err := <-sent; !errors.Is(err, ErrClosed) || err.Error() != "send: peer: simnet: endpoint closed" {
				t.Errorf("Send after peer close = %v, want send: peer: ErrClosed", err)
			}
			continue
		}
		if got, err := server.Recv(); err != nil || len(got) != 1 || got[0] != 0 {
			t.Fatalf("Recv = %q, %v", got, err)
		}
		if err := <-sent; err != nil {
			t.Errorf("Send after the peer drained one message = %v", err)
		}
	}
}

// TestHeldReleaseDropsOnFullMailbox pins releaseHeld's contract: the
// release of a held message never blocks, so it loses the message when
// the peer's mailbox is full.
func TestHeldReleaseDropsOnFullMailbox(t *testing.T) {
	n := New(0)
	client, server := newPair(n)
	for i := 0; i < mailbox; i++ {
		if err := client.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	held := &message{data: []byte("held")}
	client.held = held
	client.releaseOnTimer(held)
	for i := 0; i < mailbox; i++ {
		if got, err := server.Recv(); err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Recv %d = %q, %v", i, got, err)
		}
	}
	_ = client.Close()
	if got, err := server.Recv(); got != nil || err != nil {
		t.Errorf("Recv after drain = %q, %v; want end of stream (held message dropped)", got, err)
	}
}

// TestClosedErrorsKeepTextAndIdentity pins the preallocated
// closed-endpoint errors: the same text as before, still ErrClosed,
// ErrPeerClosed only when the other side closed, and no allocation to
// report them.
func TestClosedErrorsKeepTextAndIdentity(t *testing.T) {
	n := New(0)
	client, server := newPair(n)
	_ = server.Close()
	if err := client.Send([]byte("x")); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrPeerClosed) || err.Error() != "send: peer: simnet: endpoint closed" {
		t.Errorf("Send to a closed peer = %v", err)
	}
	client, _ = newPair(n)
	_ = client.Close()
	if err := client.Send([]byte("x")); !errors.Is(err, ErrClosed) || errors.Is(err, ErrPeerClosed) || err.Error() != "send: simnet: endpoint closed" {
		t.Errorf("Send on a closed endpoint = %v", err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) || err.Error() != "recv: simnet: endpoint closed" {
		t.Errorf("Recv on a closed endpoint = %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = client.Recv() }); allocs != 0 {
		t.Errorf("Recv on a closed endpoint: %.0f allocs, want 0", allocs)
	}
}

// TestOwnCloseWins pins the close order: an endpoint's own close wins
// over its peer's. A send on a pair whose two ends are both closed
// fails as a send on a closed endpoint, never as one to a closed peer,
// and a receive on a closed endpoint fails even with a message queued.
// A 1,000-pair loop, because a race that picks at random would pass a
// single try half the time.
func TestOwnCloseWins(t *testing.T) {
	n := New(0)
	for i := 0; i < 1000; i++ {
		client, server := newPair(n)
		if err := client.Send([]byte("queued")); err != nil {
			t.Fatal(err)
		}
		_ = server.Close()
		if got, err := server.Recv(); err != errRecvClosed {
			t.Fatalf("pair %d: Recv on a closed endpoint with a queued message = %q, %v; want %v", i, got, err, errRecvClosed)
		}
		_ = client.Close()
		if err := client.Send([]byte("x")); err != errSendClosed {
			t.Fatalf("pair %d: Send with both ends closed = %v, want %v", i, err, errSendClosed)
		}
	}
}

// TestDoneChannelsAreLazy pins the Done and PeerClosed channels, which
// an endpoint makes only when asked: one taken before Close is closed
// by it, one taken after is closed already and costs no allocation,
// and PeerClosed is the peer's Done.
func TestDoneChannelsAreLazy(t *testing.T) {
	isClosed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	n := New(0)
	client, server := newPair(n)
	before := server.Done()
	peerBefore := client.PeerClosed()
	if before != peerBefore || before != server.Done() {
		t.Error("Done and the peer's PeerClosed are different channels for one open endpoint")
	}
	if isClosed(before) {
		t.Fatal("Done closed before Close")
	}
	_ = server.Close()
	if !isClosed(before) {
		t.Error("Close did not close the Done channel taken before it")
	}

	client, server = newPair(n)
	_ = server.Close()
	if !isClosed(server.Done()) || !isClosed(client.PeerClosed()) {
		t.Error("Done or PeerClosed taken after Close is not closed")
	}
	if isClosed(client.Done()) || isClosed(server.PeerClosed()) {
		t.Error("the open endpoint's Done or its peer's PeerClosed is closed")
	}
	if allocs := testing.AllocsPerRun(100, func() { <-server.Done() }); allocs != 0 {
		t.Errorf("Done on a closed endpoint: %.0f allocs, want 0", allocs)
	}
}
