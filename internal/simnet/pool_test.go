package simnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fillPattern writes a verifiable payload: every byte is the seed, so
// any cross-message aliasing (a pooled buffer reused while a receiver
// still holds it) shows up as a mixed-seed payload.
func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed
	}
}

// checkPattern verifies a delivered payload is still uniform.
func checkPattern(buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("empty payload")
	}
	seed := buf[0]
	for i, b := range buf {
		if b != seed {
			return fmt.Errorf("byte %d = %#x, want %#x (pooled buffer aliased)", i, b, seed)
		}
	}
	return nil
}

// TestPooledSendAliasing hammers concurrent Send/Recv over many
// connections with pooled buffers: senders scribble their own buffer
// immediately after Send (legal — Send copies), receivers hold each
// delivered payload across a yield and re-verify before recycling it.
// Run under -race this proves ownership passes cleanly through the
// pool: no payload is ever observed mutated after delivery.
func TestPooledSendAliasing(t *testing.T) {
	net := New(0)
	const (
		conns    = 8
		messages = 200
	)
	l, err := net.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, conns*2)
	for c := 0; c < conns; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			server, err := l.Accept()
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = server.Close() }()
			held := make([][]byte, 0, 4)
			for {
				msg, err := server.Recv()
				if err != nil {
					errs <- err
					return
				}
				if msg == nil {
					break
				}
				if err := checkPattern(msg); err != nil {
					errs <- fmt.Errorf("conn %d on delivery: %w", c, err)
					return
				}
				// Hold a few buffers across further traffic, then
				// re-verify: recycling must not scribble on them while
				// the receiver still owns them.
				held = append(held, msg)
				if len(held) == cap(held) {
					time.Sleep(time.Millisecond)
					for _, h := range held {
						if err := checkPattern(h); err != nil {
							errs <- fmt.Errorf("conn %d while held: %w", c, err)
							return
						}
						PutBuffer(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				if err := checkPattern(h); err != nil {
					errs <- fmt.Errorf("conn %d at close: %w", c, err)
				}
				PutBuffer(h)
			}
		}()

		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := net.Dial(80)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = client.Close() }()
			scratch := make([]byte, 0, 512)
			for m := 0; m < messages; m++ {
				n := 1 + (c*31+m*7)%512
				buf := scratch[:n]
				seed := byte(c*16 + m%16)
				fillPattern(buf, seed)
				if err := client.Send(buf); err != nil {
					errs <- err
					return
				}
				// Send copies: reusing (and scribbling) the caller
				// buffer immediately must not affect the delivery.
				fillPattern(buf, ^seed)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSendOwnedHandoffAliasing drives payloads through a zero-copy
// relay chain (sender → relay → receiver) built on SendOwned: the
// relay hands each received buffer straight to the next wire without
// copying, and the final receiver verifies the payload then recycles
// it.
func TestSendOwnedHandoffAliasing(t *testing.T) {
	net := New(0)
	const messages = 500

	back, err := net.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = back.Close() }()
	front, err := net.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = front.Close() }()

	errs := make(chan error, 3)
	var wg sync.WaitGroup

	// Relay: front → back, zero-copy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		up, err := front.Accept()
		if err != nil {
			errs <- err
			return
		}
		defer func() { _ = up.Close() }()
		down, err := net.Dial(81)
		if err != nil {
			errs <- err
			return
		}
		defer func() { _ = down.Close() }()
		for {
			msg, err := up.Recv()
			if err != nil {
				errs <- err
				return
			}
			if msg == nil {
				return
			}
			if err := down.SendOwned(msg); err != nil {
				PutBuffer(msg)
				errs <- err
				return
			}
		}
	}()

	// Receiver: verifies every relayed payload, then recycles it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := back.Accept()
		if err != nil {
			errs <- err
			return
		}
		defer func() { _ = conn.Close() }()
		for m := 0; m < messages; m++ {
			msg, err := conn.Recv()
			if err != nil || msg == nil {
				errs <- fmt.Errorf("recv %d: msg=%v err=%v", m, msg, err)
				return
			}
			want := make([]byte, 1+(m*13)%256)
			fillPattern(want, byte(m))
			if !bytes.Equal(msg, want) {
				errs <- fmt.Errorf("message %d corrupted through the relay", m)
				return
			}
			PutBuffer(msg)
		}
	}()

	client, err := net.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < messages; m++ {
		buf := GetBuffer(1 + (m*13)%256)
		fillPattern(buf, byte(m))
		// Hand our own pooled buffer over: after SendOwned succeeds we
		// must not touch it again.
		if err := client.SendOwned(buf); err != nil {
			t.Fatal(err)
		}
	}
	_ = client.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGetPutBufferSizing pins the pool's sizing contract: GetBuffer
// returns exactly-n-length slices, grows past the minimum capacity for
// large requests, and recycled capacity is observed by later Gets.
func TestGetPutBufferSizing(t *testing.T) {
	b := GetBuffer(10)
	if len(b) != 10 {
		t.Errorf("len = %d, want 10", len(b))
	}
	if cap(b) < minBufCap {
		t.Errorf("cap = %d, want >= %d", cap(b), minBufCap)
	}
	big := GetBuffer(3 * minBufCap)
	if len(big) != 3*minBufCap {
		t.Errorf("big len = %d", len(big))
	}
	// An idle request-sized buffer must not stand in front of a
	// response-sized Get: size classes keep the recycled big buffer
	// reachable, so the next big Get is a hit.
	PutBuffer(b)
	PutBuffer(big)
	misses := poolMisses.Load()
	if again := GetBuffer(3 * minBufCap); cap(again) < 3*minBufCap || poolMisses.Load() != misses {
		t.Errorf("big Get after recycling: cap %d, misses %d -> %d", cap(again), misses, poolMisses.Load())
	}
	PutBuffer(nil) // must not panic or pollute the pool
}
