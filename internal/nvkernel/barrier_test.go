package nvkernel

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
	"nvariant/internal/word"
)

// startSystem runs progs in the background and returns the system, so
// a test can watch lane 0's barrier, and the channel delivering the
// result.
func startSystem(t *testing.T, progs []sys.Program, opts ...Option) (*system, <-chan *Result) {
	t.Helper()
	s, err := newSystem(newWorld(t), simnet.New(0), progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { done <- s.run() }()
	return s, done
}

// awaitParked blocks until every variant in mask is parked at lane 0's
// barrier after at least seq completed rendezvous.
func awaitParked(t *testing.T, s *system, seq int, mask uint64) {
	t.Helper()
	testutil.Eventually(t, 5*time.Second, func() bool {
		s.mu.Lock()
		if len(s.lanes) == 0 {
			s.mu.Unlock()
			return false
		}
		l := s.lanes[0]
		s.mu.Unlock()
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.rendezvous >= seq && l.arrived&mask == mask
	}, "variants %b never parked at rendezvous %d", mask, seq)
}

// alarmKey is the part of an alarm that must not depend on which
// variant arrived last and so executed the rendezvous.
type alarmKey struct {
	Reason  Reason
	Syscall string
	Seq     int
	Variant int
	Detail  string
}

// gatedAlarm runs n variants that rendezvous once, then reach a second
// rendezvous one at a time in the given order — each released only
// after the previous one is parked — where variant d makes the
// divergent version of call. It returns the alarm that rendezvous
// raised.
func gatedAlarm(t *testing.T, n, d int, order []int, call func(ctx *sys.Context, divergent bool) error) alarmKey {
	t.Helper()
	gates := make([]chan struct{}, n)
	progs := make([]sys.Program, n)
	for i := range progs {
		gate := make(chan struct{})
		gates[i] = gate
		progs[i] = prog("gated", func(ctx *sys.Context) error {
			if _, err := vtime(ctx); err != nil {
				return err
			}
			<-gate
			if err := call(ctx, ctx.Variant == d); err != nil {
				return err
			}
			return ctx.Exit(0)
		})
	}
	s, done := startSystem(t, progs, WithTimeout(5*time.Second))
	var parked uint64
	for k, i := range order {
		close(gates[i])
		if k < len(order)-1 {
			parked |= 1 << uint(i)
			awaitParked(t, s, 1, parked)
		}
	}
	res := <-done
	if res.Alarm == nil {
		t.Fatalf("order %v: no alarm", order)
	}
	a := res.Alarm
	return alarmKey{a.Reason, a.Syscall, a.Seq, a.Variant, a.Detail}
}

func TestAlarmAttributionIndependentOfArrivalOrder(t *testing.T) {
	// Whichever variant completes the barrier executes the rendezvous,
	// so the divergent variant is the executor in one order and a
	// parked arrival in the other. The alarm must read the same.
	divergences := []struct {
		name   string
		reason Reason
		call   func(ctx *sys.Context, divergent bool) error
	}{
		{"uid-divergence", ReasonUIDDivergence, func(ctx *sys.Context, divergent bool) error {
			uid := word.Word(1000)
			if divergent {
				uid = 0
			}
			_, err := ctx.UIDValue(uid)
			return err
		}},
		{"arg-count", ReasonArgDivergence, func(ctx *sys.Context, divergent bool) error {
			args := []word.Word{1000}
			if divergent {
				args = append(args, 0)
			}
			_, err := ctx.Syscall(sys.Call{Num: sys.UIDValue, Args: args})
			return err
		}},
		{"syscall-mismatch", ReasonSyscallMismatch, func(ctx *sys.Context, divergent bool) error {
			if divergent {
				_, err := ctx.Getuid()
				return err
			}
			_, err := vtime(ctx)
			return err
		}},
	}
	const d = 1
	for _, n := range []int{2, 3} {
		var rest []int
		for i := 0; i < n; i++ {
			if i != d {
				rest = append(rest, i)
			}
		}
		first := append([]int{d}, rest...)
		last := append(append([]int{}, rest...), d)
		for _, dv := range divergences {
			t.Run(fmt.Sprintf("%s/n=%d", dv.name, n), func(t *testing.T) {
				a := gatedAlarm(t, n, d, first, dv.call)
				b := gatedAlarm(t, n, d, last, dv.call)
				if a != b {
					t.Errorf("alarm depends on arrival order:\n divergent first: %+v\n divergent last:  %+v", a, b)
				}
				if a.Reason != dv.reason || a.Variant != d || a.Seq != 1 {
					t.Errorf("alarm = %+v, want %v from variant %d at seq 1", a, dv.reason, d)
				}
			})
		}
	}
}

func TestStallAttributedToLowestMissingVariant(t *testing.T) {
	// Variant 2 parks at the barrier; variants 0 and 1 never arrive.
	// The watchdog must name variant 0 — the variant an index-order
	// gather waits on first — and not fire before Timeout.
	const timeout = 50 * time.Millisecond
	gate := make(chan struct{})
	release := make(chan struct{})
	progs := make([]sys.Program, 3)
	for i := range progs {
		progs[i] = prog("stall", func(ctx *sys.Context) error {
			if ctx.Variant == 2 {
				<-gate
			} else {
				<-release
			}
			if _, err := vtime(ctx); err != nil {
				return err
			}
			return ctx.Exit(0)
		})
	}
	s, done := startSystem(t, progs, WithTimeout(timeout))
	armed := time.Now() // the watchdog is armed after this, at the arrival
	close(gate)
	testutil.Eventually(t, 5*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.alarm != nil
	}, "stall never detected")
	close(release) // the missing variants now find the group killed
	res := <-done
	a := res.Alarm
	if a.Reason != ReasonTimeout || a.Variant != 0 || a.Seq != 0 || a.Syscall != "(none)" {
		t.Errorf("alarm = %+v, want timeout of variant 0 at seq 0", a)
	}
	if waited := a.At.Sub(armed); waited < timeout {
		t.Errorf("stall detected after %v, before the %v timeout", waited, timeout)
	}
	for i, err := range res.VariantErrs {
		if errors.Is(err, errStillRunning) {
			t.Errorf("variant %d still running at shutdown", i)
		}
	}
}

// timeSpinner preforks workers lanes whose variants each issue iters
// time(2) calls; at iteration killAt the variants of lane killLane
// present variant-distinct UIDs, raising the alarm that kills the
// group while every other lane is mid-stream.
type timeSpinner struct{ workers, iters, killLane, killAt int }

func (p timeSpinner) Name() string { return "time-spinner" }

func (p timeSpinner) Run(ctx *sys.Context) error {
	if _, err := ctx.Prefork(p.workers); err != nil {
		return err
	}
	return p.RunWorker(ctx, 0)
}

func (p timeSpinner) RunWorker(ctx *sys.Context, worker int) error {
	for k := 0; k < p.iters; k++ {
		if worker == p.killLane && k == p.killAt {
			if _, err := ctx.UIDValue(word.Word(ctx.Variant)); err != nil {
				return err
			}
		}
		if _, err := vtime(ctx); err != nil {
			return err
		}
	}
	return ctx.Exit(0)
}

func TestBarrierKillReleasesEveryVariant(t *testing.T) {
	// Lost-wakeup stress for the barrier: 4 lanes × 3 variants hammer
	// time(2) while one lane's divergence kills the group. Every
	// variant — parked, executing, or about to arrive — must be
	// answered and return; a lost wakeup shows as a hang or as
	// errStillRunning after the grace period.
	p := timeSpinner{workers: 4, iters: 3000, killLane: 2, killAt: 1000}
	progs := []sys.Program{p, p, p}
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(newWorld(t), simnet.New(0), progs, WithTimeout(5*time.Second))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("group never finished: a variant was not released")
	}
	if res.Alarm == nil || res.Alarm.Reason != ReasonUIDDivergence || res.Alarm.Worker != p.killLane {
		t.Fatalf("alarm = %+v, want uid-divergence in lane %d", res.Alarm, p.killLane)
	}
	if res.Workers != p.workers || len(res.VariantErrs) != p.workers*len(progs) {
		t.Fatalf("workers = %d, variant errors = %d", res.Workers, len(res.VariantErrs))
	}
	for i, err := range res.VariantErrs {
		if errors.Is(err, errStillRunning) {
			t.Errorf("lane %d variant %d still running at shutdown", i/len(progs), i%len(progs))
		}
	}
}
