package nvkernel

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// echoServer is a minimal prefork server: listen, prefork W lanes,
// then every lane echoes messages on its accepted connection until the
// client closes. diverge != 0 makes a worker expose a variant-distinct
// UID to the monitor when a payload starts with 'D' — a corrupted lane
// in miniature.
type echoServer struct {
	workers int
	port    uint16
	diverge bool
	logEach bool // write a shared-log line per message (write-path load)
	lfd     int
	logfd   int
}

func (e *echoServer) Name() string { return "echo" }

func (e *echoServer) Run(ctx *sys.Context) error {
	lfd, err := ctx.Listen(e.port)
	if err != nil {
		return err
	}
	e.lfd = lfd
	if e.logEach {
		e.logfd, err = ctx.Open("/var/log/echo", vos.WriteOnly|vos.Create|vos.Append, 0644)
		if err != nil {
			return err
		}
	}
	if e.workers > 1 {
		if _, err := ctx.Prefork(e.workers); err != nil {
			return err
		}
	}
	return e.RunWorker(ctx, 0)
}

func (e *echoServer) RunWorker(ctx *sys.Context, worker int) error {
	buf, err := ctx.Mem.Alloc(1024)
	if err != nil {
		return err
	}
	for {
		cfd, err := ctx.Accept(e.lfd)
		if err != nil {
			return nil // listener closed: orderly shutdown
		}
		for {
			n, err := ctx.RecvMem(cfd, buf, 1024)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if e.diverge {
				b, err := ctx.Mem.LoadByte(buf)
				if err != nil {
					return err
				}
				if b == 'D' {
					// The divergence a real corruption produces: each
					// variant presents a different concrete value.
					if _, err := ctx.UIDValue(word.Word(ctx.Variant)); err != nil {
						return err
					}
				}
			}
			if e.logEach {
				if err := ctx.WriteString(e.logfd, "served\n"); err != nil {
					return err
				}
			}
			if err := ctx.SendMem(cfd, buf, n); err != nil {
				return err
			}
		}
		if err := ctx.Close(cfd); err != nil {
			return err
		}
	}
}

// startEcho runs an echo group in the background and waits for its
// listener.
func startEcho(t *testing.T, w *vos.World, net *simnet.Network, n int, srv func() *echoServer) (port uint16, done chan *Result) {
	t.Helper()
	progs := make([]sys.Program, n)
	servers := make([]*echoServer, n)
	for i := range progs {
		servers[i] = srv()
		progs[i] = servers[i]
	}
	port = servers[0].port
	done = make(chan *Result, 1)
	go func() {
		res, err := Run(w, net, progs)
		if err != nil {
			t.Errorf("Run: %v", err)
		}
		done <- res
	}()
	testutil.Eventually(t, 5*time.Second, func() bool {
		c, err := net.Dial(port)
		if err != nil {
			return false
		}
		_ = c.Close()
		return true
	}, "echo server never listened")
	return port, done
}

// echoOnce sends payload and expects it echoed back on an open conn.
func echoOnce(t *testing.T, conn *simnet.Conn, payload string) {
	t.Helper()
	if err := conn.Send([]byte(payload)); err != nil {
		t.Fatalf("send %q: %v", payload, err)
	}
	reply, err := conn.Recv()
	if err != nil || string(reply) != payload {
		t.Fatalf("echo of %q = %q, %v", payload, reply, err)
	}
}

func TestPreforkWorkersServeConcurrently(t *testing.T) {
	// Three lanes, two variants each. Proof of intra-group concurrency:
	// two connections are parked mid-stream inside their lanes' recv
	// while a third connection is served start to finish — a serial
	// group would sit in the first connection's recv forever.
	w := newWorld(t)
	net := simnet.New(0)
	port, done := startEcho(t, w, net, 2, func() *echoServer {
		return &echoServer{workers: 3, port: 9100}
	})

	a, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, a, "held-a") // lane now parked in recv on a
	b, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, b, "held-b") // second lane parked in recv on b

	c, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		echoOnce(t, c, "third-lane") // full exchanges on the free lane
	}
	_ = c.Close()

	// The held lanes are still live.
	echoOnce(t, a, "still-a")
	echoOnce(t, b, "still-b")
	_ = a.Close()
	_ = b.Close()

	_ = net.ShutdownPort(port)
	res := <-done
	if !res.Clean {
		t.Fatalf("not clean: %+v", res.Alarm)
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d, want 3", res.Workers)
	}
}

func TestWorkerLaneAlarmKillsWholeGroup(t *testing.T) {
	// The group-wide kill contract under -race: one lane alarms
	// mid-flight while the two sibling lanes are parked in recv on open
	// connections. The whole group must die, the alarm must record the
	// offending lane, and no kernel goroutine may leak.
	before := runtime.NumGoroutine()

	w := newWorld(t)
	net := simnet.New(0)
	port, done := startEcho(t, w, net, 2, func() *echoServer {
		return &echoServer{workers: 3, port: 9101, diverge: true}
	})

	a, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, a, "held-a")
	b, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, b, "held-b")

	// The free lane gets the poisoned payload: its UIDValue rendezvous
	// sees variant-distinct values and alarms.
	c, err := net.Dial(port)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("DIVERGE")); err != nil {
		t.Fatal(err)
	}
	if reply, err := c.Recv(); err == nil && reply != nil {
		t.Fatalf("poisoned request was served: %q", reply)
	}

	res := <-done
	if res.Alarm == nil || res.Alarm.Reason != ReasonUIDDivergence {
		t.Fatalf("alarm = %+v, want uid-divergence", res.Alarm)
	}
	if res.Alarm.Syscall != "uid_value" {
		t.Errorf("alarm at %q, want uid_value", res.Alarm.Syscall)
	}
	if res.Alarm.Worker < 0 || res.Alarm.Worker > 2 {
		t.Errorf("alarm worker = %d, want a lane in [0,3)", res.Alarm.Worker)
	}
	if res.Clean {
		t.Error("killed group reported clean")
	}

	// The sibling lanes' connections observe the kill: dropped with no
	// response.
	for name, conn := range map[string]*simnet.Conn{"a": a, "b": b} {
		if reply, err := conn.Recv(); err == nil && reply != nil {
			t.Errorf("conn %s got data after group kill: %q", name, reply)
		}
		_ = conn.Close()
	}
	_ = c.Close()

	// Every variant goroutine and lane watchdog must be gone (the
	// variants were all blocked in syscalls, so the kill unwinds them
	// promptly — nothing here spins).
	testutil.CheckNoGoroutineLeak(t, before, 2)
}

func TestPreforkValidation(t *testing.T) {
	t.Run("plain-program", func(t *testing.T) {
		// A program without RunWorker must be refused, not run serially
		// while claiming to prefork.
		w := newWorld(t)
		res := mustRun(t, w, same(2, "plain", func(ctx *sys.Context) error {
			if _, err := ctx.Prefork(2); err == nil {
				return ctx.Exit(1)
			}
			return ctx.Exit(0)
		}))
		if !res.Clean || res.Status != 0 {
			t.Fatalf("status=%d alarm=%v", res.Status, res.Alarm)
		}
	})

	t.Run("twice-and-from-worker", func(t *testing.T) {
		progs := make([]sys.Program, 2)
		for i := range progs {
			progs[i] = sys.WorkerProgramFunc{
				ProgramFunc: sys.ProgramFunc{ProgName: "fork", Fn: func(ctx *sys.Context) error {
					if _, err := ctx.Prefork(0); err == nil {
						return ctx.Exit(1) // w < 1 must be refused
					}
					if _, err := ctx.Prefork(2); err != nil {
						return err
					}
					if _, err := ctx.Prefork(2); err == nil {
						return ctx.Exit(2) // second prefork must be refused
					}
					return ctx.Exit(0)
				}},
				WorkerFn: func(ctx *sys.Context, worker int) error {
					if worker != 1 || ctx.Worker != 1 {
						return errors.New("wrong worker index")
					}
					if _, err := ctx.Prefork(2); err == nil {
						return errors.New("prefork accepted from a worker lane")
					}
					return nil
				},
			}
		}
		res := mustRun(t, newWorld(t), progs)
		if !res.Clean || res.Status != 0 {
			t.Fatalf("clean=%v status=%d alarm=%v", res.Clean, res.Status, res.Alarm)
		}
		if res.Workers != 2 {
			t.Errorf("workers = %d, want 2", res.Workers)
		}
	})
}
