package nvkernel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
)

// TestStragglerDrainGoroutinesExit is the regression test for the
// post-alarm drain leak: when the grace period expires with a variant
// still spinning (no syscalls, so unpreemptable), Run must return
// leaving only the spinner behind — no kernel goroutine (watchdog,
// waiter) may block on it. An earlier drain design leaked one
// goroutine set per straggler run, for the life of the process.
func TestStragglerDrainGoroutinesExit(t *testing.T) {
	before := runtime.NumGoroutine()
	var spin atomic.Bool // released at the end so the variant itself can exit

	const runs = 5
	for r := 0; r < runs; r++ {
		w := newWorld(t)
		progs := []sys.Program{
			prog("exits", func(ctx *sys.Context) error {
				return ctx.Exit(0)
			}),
			prog("spins", func(ctx *sys.Context) error {
				for !spin.Load() {
					runtime.Gosched()
				}
				// Returning an error (not Exit) lets the goroutine
				// unwind without a syscall — after Run returns, nothing
				// answers the rendezvous channel anymore.
				return errors.New("spinner released")
			}),
		}
		res, err := Run(w, simnet.New(0), progs, WithTimeout(30*time.Millisecond))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Alarm == nil || res.Alarm.Reason != ReasonTimeout {
			t.Fatalf("expected timeout alarm, got %+v", res.Alarm)
		}
		if res.VariantErrs[1] == nil {
			t.Fatalf("straggler not reported: %v", res.VariantErrs)
		}
	}

	// Only the spinning variant goroutines may outlive their runs
	// (goroutines are not killable); every kernel goroutine must be
	// gone. The slack of runs covers the spinners themselves.
	if got := testutil.WaitGoroutines(before + runs + 2); got > before+runs+2 {
		t.Errorf("goroutines after %d straggler runs = %d, want <= %d (drain leak)",
			runs, got, before+runs+2)
	}

	// Release the spinners; everything should drain back to baseline.
	spin.Store(true)
	testutil.CheckNoGoroutineLeak(t, before, 2)
}
