package nvkernel

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// serveOnce runs progs over a fresh world and network and returns the
// group's outcome channel and the network, once a listener is open on
// port.
func serveOnce(t *testing.T, progs []sys.Program, port uint16, opts ...Option) (*simnet.Network, <-chan *Result) {
	t.Helper()
	return serveOnceIn(t, newWorld(t), progs, port, opts...)
}

// serveOnceIn is serveOnce in the given world.
func serveOnceIn(t *testing.T, w *vos.World, progs []sys.Program, port uint16, opts ...Option) (*simnet.Network, <-chan *Result) {
	t.Helper()
	net := simnet.New(0)
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(w, net, progs, opts...)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case <-net.Listening(port):
	case <-time.After(5 * time.Second):
		t.Fatal("server never listened")
	}
	return net, done
}

// sendPayload allocates n page-aligned bytes of variant memory, fills
// them with fill(i) and sends them on cfd.
func sendPayload(ctx *sys.Context, cfd int, n uint32, fill func(i int) byte) error {
	buf, err := ctx.Mem.Alloc(n)
	if err != nil {
		return err
	}
	if buf%vmem.PageSize != 0 {
		return fmt.Errorf("payload at %s is not page-aligned", buf)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = fill(i)
	}
	if err := ctx.Mem.WriteBytes(buf, b); err != nil {
		return err
	}
	return ctx.SendMem(cfd, buf, n)
}

// TestSendDivergenceInLastPage: the in-place compare covers a large
// send payload to its last byte. One variant of three differs in one
// byte of the last page of a 44 KiB payload; the monitor raises
// data-divergence naming that variant, and the client receives nothing.
func TestSendDivergenceInLastPage(t *testing.T) {
	// The payload is the program's first allocation, so it starts on a
	// page boundary and its last page holds its last 100 bytes.
	const size = 44<<10 + 100
	const last = size - 50
	net, done := serveOnce(t, same(3, "bigsend", func(ctx *sys.Context) error {
		lfd, err := ctx.Listen(8080)
		if err != nil {
			return err
		}
		cfd, err := ctx.Accept(lfd)
		if err != nil {
			return err
		}
		if err := sendPayload(ctx, cfd, size, func(i int) byte {
			if i == last && ctx.Variant == 2 {
				return 0xFF
			}
			return byte(i % 251)
		}); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), 8080)

	conn, err := net.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	res := <-done
	if res.Alarm == nil || res.Alarm.Reason != ReasonDataDivergence || res.Alarm.Variant != 2 || res.Alarm.Syscall != "send" {
		t.Fatalf("alarm = %v, want data-divergence at send by variant 2", res.Alarm)
	}
	if got, want := res.Alarm.Detail, fmt.Sprintf("output payload differs from variant 0 (%d bytes)", size); got != want {
		t.Errorf("detail = %q, want %q", got, want)
	}
	if msg, err := conn.Recv(); msg != nil {
		t.Errorf("client received %d bytes (err %v), want none", len(msg), err)
	}
}

// TestOwnedSendAliasing: a sent payload belongs to the wire. A lane
// sends response A on one connection and then B on another before the
// client reads A; if the kernel recycled A's buffer after handing it
// over, B would be gathered into it and A would arrive as B. Run under
// -race.
func TestOwnedSendAliasing(t *testing.T) {
	const size = 8 << 10
	net, done := serveOnce(t, same(2, "twosends", func(ctx *sys.Context) error {
		lfd, err := ctx.Listen(8080)
		if err != nil {
			return err
		}
		var cfds [2]int
		for i := range cfds {
			if cfds[i], err = ctx.Accept(lfd); err != nil {
				return err
			}
		}
		for i, cfd := range cfds {
			if err := sendPayload(ctx, cfd, size, func(int) byte { return 'A' + byte(i) }); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), 8080)

	var conns [2]*simnet.Conn
	for i := range conns {
		c, err := net.Dial(8080)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		conns[i] = c
	}
	// B first: by the time it arrives, A has been on the wire unread.
	for _, i := range []int{1, 0} {
		msg, err := conns[i].Recv()
		if err != nil || len(msg) != size {
			t.Fatalf("response %c: %d bytes, %v", 'A'+i, len(msg), err)
		}
		for j, b := range msg {
			if b != 'A'+byte(i) {
				t.Fatalf("response %c: byte %d = %q (pooled buffer aliased)", 'A'+i, j, b)
			}
		}
	}
	if res := <-done; !res.Clean {
		t.Fatalf("group did not exit cleanly: %v", res.Alarm)
	}
}

// TestSendToClosedPeerIsEPIPE: a send to a client that has hung up
// answers EPIPE to every variant, with no alarm, and a send on a
// descriptor the server has closed still answers EBADF. Each variant
// exits with a status built from the errnos it saw, so a variant that
// saw another errno would diverge at exit.
func TestSendToClosedPeerIsEPIPE(t *testing.T) {
	net, done := serveOnce(t, same(2, "hangup", func(ctx *sys.Context) error {
		lfd, err := ctx.Listen(8080)
		if err != nil {
			return err
		}
		cfd, err := ctx.Accept(lfd)
		if err != nil {
			return err
		}
		buf, err := ctx.Mem.Alloc(64)
		if err != nil {
			return err
		}
		// End of stream: the client has closed.
		if n, err := ctx.RecvMem(cfd, buf, 64); n != 0 || err != nil {
			return fmt.Errorf("recv = %d, %v; want end of stream", n, err)
		}
		status := word.Word(10)
		if err := ctx.SendMem(cfd, buf, 64); !errors.Is(err, vos.ErrPipe) {
			status++
		}
		if err := ctx.Close(cfd); err != nil {
			return err
		}
		if err := ctx.SendMem(cfd, buf, 64); !errors.Is(err, vos.ErrBadFD) {
			status += 2
		}
		return ctx.Exit(status)
	}), 8080)

	conn, err := net.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if res := <-done; !res.Clean || res.Alarm != nil || res.Status != 10 {
		t.Fatalf("clean %v, status %d, alarm %v; want a clean exit with status 10 (EPIPE, then EBADF)", res.Clean, res.Status, res.Alarm)
	}
}
