package simnet

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

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
	// case the fleet dispatcher's shutdown depends on.
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
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, err := c.Recv(); err == nil && got != nil {
			t.Errorf("Recv = %q, want end of stream or error", got)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dialer hung in Recv after listener close")
	}
}

// TestConnExchangeAllocBound pins the per-connection cost: one Dial,
// one message each way and both Closes. Each endpoint's mailbox is
// sized to request/response traffic, so the whole exchange stays
// within 2 KiB.
func TestConnExchangeAllocBound(t *testing.T) {
	const maxBytes, maxAllocs = 2048, 7
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

// TestHeldReleaseDropsOnFullMailbox pins deliverHeld's contract: the
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
	client.deliverHeld(message{data: []byte("held")})
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
// and no allocation to report them.
func TestClosedErrorsKeepTextAndIdentity(t *testing.T) {
	n := New(0)
	client, server := newPair(n)
	_ = server.Close()
	if err := client.Send([]byte("x")); !errors.Is(err, ErrClosed) || err.Error() != "send: peer: simnet: endpoint closed" {
		t.Errorf("Send to a closed peer = %v", err)
	}
	client, _ = newPair(n)
	_ = client.Close()
	if err := client.Send([]byte("x")); !errors.Is(err, ErrClosed) || err.Error() != "send: simnet: endpoint closed" {
		t.Errorf("Send on a closed endpoint = %v", err)
	}
	if _, err := client.Recv(); !errors.Is(err, ErrClosed) || err.Error() != "recv: simnet: endpoint closed" {
		t.Errorf("Recv on a closed endpoint = %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = client.Recv() }); allocs != 0 {
		t.Errorf("Recv on a closed endpoint: %.0f allocs, want 0", allocs)
	}
}
