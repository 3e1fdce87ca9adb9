package nvkernel

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
)

// testHook scripts FaultHook decisions per (variant, syscall).
type testHook struct {
	stall func(worker, variant int, num sys.Num) time.Duration
	crash func(worker, variant int, num sys.Num) bool
}

func (h testHook) PreSyscall(worker, variant int, num sys.Num) (time.Duration, bool) {
	if h.crash != nil && h.crash(worker, variant, num) {
		return 0, true
	}
	if h.stall != nil {
		return h.stall(worker, variant, num), false
	}
	return 0, false
}

func TestFaultHookStallIsTransparent(t *testing.T) {
	// A bounded per-variant stall delays the rendezvous but must not
	// alarm: the siblings wait, exactly as for a slow syscall.
	hook := testHook{stall: func(_, variant int, _ sys.Num) time.Duration {
		if variant == 1 {
			return 2 * time.Millisecond
		}
		return 0
	}}
	res := mustRun(t, newWorld(t), same(2, "stalled", func(ctx *sys.Context) error {
		for i := 0; i < 3; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), WithFaultHook(hook), WithTimeout(5*time.Second))
	if !res.Clean || res.Alarm != nil {
		t.Fatalf("stalled group not clean: %+v", res.Alarm)
	}
}

func TestFaultHookCrashRaisesVariantFault(t *testing.T) {
	// A crash-and-drain fault mid-run: variant 1 dies at its second
	// time(2) without reaching the rendezvous. The monitor must raise a
	// variant-fault alarm, record the crash, and drain the group.
	calls := 0
	hook := testHook{crash: func(_, variant int, num sys.Num) bool {
		if variant != 1 || num != sys.Time {
			return false
		}
		calls++
		return calls == 2
	}}
	res := mustRun(t, newWorld(t), same(2, "crashy", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), WithFaultHook(hook), WithTimeout(5*time.Second))
	if res.Alarm == nil || res.Alarm.Reason != ReasonVariantFault {
		t.Fatalf("alarm = %+v, want variant-fault", res.Alarm)
	}
	if res.Alarm.Variant != 1 {
		t.Errorf("alarm variant = %d, want 1", res.Alarm.Variant)
	}
	if len(res.VariantErrs) != 2 || !errors.Is(res.VariantErrs[1], sys.ErrCrashed) {
		t.Errorf("variant errors = %v, want ErrCrashed for variant 1", res.VariantErrs)
	}
	if errors.Is(res.VariantErrs[0], sys.ErrCrashed) {
		t.Errorf("healthy variant reported crashed: %v", res.VariantErrs[0])
	}
}

func TestCrashedVariantStaysDead(t *testing.T) {
	// After an injected crash every further syscall from the variant
	// fails with ErrCrashed without reaching the kernel — a crashed
	// process cannot keep issuing syscalls.
	hook := testHook{crash: func(_, variant int, num sys.Num) bool {
		return variant == 1 && num == sys.Time
	}}
	sawSecond := false
	progs := []sys.Program{
		prog("healthy", func(ctx *sys.Context) error {
			_, err := vtime(ctx)
			if err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("crashy", func(ctx *sys.Context) error {
			if _, err := vtime(ctx); !errors.Is(err, sys.ErrCrashed) {
				return err
			}
			// The program (buggily) ignores its own death; the context
			// must refuse to let it back into the rendezvous.
			_, err := vtime(ctx)
			sawSecond = true
			return err
		}),
	}
	res := mustRun(t, newWorld(t), progs, WithFaultHook(hook), WithTimeout(5*time.Second))
	if res.Alarm == nil || res.Alarm.Reason != ReasonVariantFault {
		t.Fatalf("alarm = %+v, want variant-fault", res.Alarm)
	}
	if !sawSecond {
		t.Fatal("crashed variant never retried")
	}
	if !errors.Is(res.VariantErrs[1], sys.ErrCrashed) {
		t.Errorf("variant 1 error = %v, want ErrCrashed", res.VariantErrs[1])
	}
}

func TestSharedWriteRacesGroupKill(t *testing.T) {
	// Regression stress for the stale-alias write: lanes hammering the
	// shared log file's write path while a poisoned payload alarms a
	// sibling lane. Before execWrite pinned the open-file descriptions,
	// the kill's closeSlotLocked nil'd the aliased files slice under a
	// lane that had released the lock to gather payloads — a kernel
	// panic. Now the loser of the race must observe Killed/EBADF.
	for round := 0; round < 10; round++ {
		w := newWorld(t)
		net := simnet.New(0)
		_, done := startEcho(t, w, net, 2, func() *echoServer {
			return &echoServer{workers: 4, port: 9200, diverge: true, logEach: true}
		})

		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					conn, err := net.Dial(9200)
					if err != nil {
						return // group killed
					}
					if conn.Send([]byte("benign")) != nil {
						_ = conn.Close()
						return
					}
					_, _ = conn.Recv()
					_ = conn.Close()
				}
			}()
		}
		// Let the writers get going, then poison one lane.
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		if conn, err := net.Dial(9200); err == nil {
			_ = conn.Send([]byte("DIVERGE"))
			_, _ = conn.Recv()
			_ = conn.Close()
		}
		wg.Wait()
		res := <-done
		if res.Alarm == nil {
			t.Fatalf("round %d: poisoned group did not alarm: %+v", round, res)
		}
	}
}
