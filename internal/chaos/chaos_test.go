package chaos

import (
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
)

func TestNetInjectorDeterministicStream(t *testing.T) {
	plan := NetPlan{DropRate: 0.1, TruncateRate: 0.2, ReorderRate: 0.2, DelayRate: 0.3, Delay: time.Millisecond}
	a, b := plan.Injector(42), plan.Injector(42)
	var kinds [5]int
	for i := 0; i < 4096; i++ {
		fa, fb := a.FaultFor(100), b.FaultFor(100)
		if fa != fb {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, fa, fb)
		}
		switch {
		case fa.Drop:
			kinds[0]++
		case fa.TruncateTo > 0:
			kinds[1]++
		case fa.Hold > 0:
			kinds[2]++
		case fa.Delay > 0:
			kinds[3]++
		default:
			kinds[4]++
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("fault kind %d never drawn across 4096 decisions", k)
		}
	}
	// A different seed must draw a different stream (a fully identical
	// 64-decision window is astronomically unlikely).
	c, d := plan.Injector(42), plan.Injector(43)
	same := true
	for i := 0; i < 64; i++ {
		if c.FaultFor(100) != d.FaultFor(100) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the same decision stream")
	}
}

func TestNetInjectorTruncateNeverEmpty(t *testing.T) {
	plan := NetPlan{TruncateRate: 1}
	inj := plan.Injector(1)
	for i := 0; i < 256; i++ {
		f := inj.FaultFor(5)
		if f.TruncateTo < 1 || f.TruncateTo >= 5 {
			t.Fatalf("truncate verdict %d outside [1,5)", f.TruncateTo)
		}
	}
	if f := inj.FaultFor(1); f != (simnet.Fault{}) {
		t.Errorf("single-byte message got %+v, want untouched", f)
	}
}

func TestKernelHookCrashTriggersOnExactOccurrence(t *testing.T) {
	plan := KernelPlan{CrashVariant: 1, CrashCall: sys.Recv, CrashAfter: 3}
	h := plan.Hook(1)
	for i := 1; i <= 5; i++ {
		// Variant 0 and other syscalls never crash.
		if _, crash := h.PreSyscall(0, 0, sys.Recv); crash {
			t.Fatalf("variant 0 crashed at recv %d", i)
		}
		if _, crash := h.PreSyscall(0, 1, sys.Send); crash {
			t.Fatalf("variant 1 crashed at send %d", i)
		}
		_, crash := h.PreSyscall(0, 1, sys.Recv)
		if crash != (i == 3) {
			t.Fatalf("variant 1 recv %d: crash = %v", i, crash)
		}
	}
}

func TestKernelHookCrashCountsAcrossLanes(t *testing.T) {
	// The occurrence counter is per (variant, syscall) group-wide: the
	// trigger point is a property of the traffic, not of which worker
	// lane carries each call.
	plan := KernelPlan{CrashVariant: 0, CrashCall: sys.Recv, CrashAfter: 2}
	h := plan.Hook(9)
	if _, crash := h.PreSyscall(0, 0, sys.Recv); crash {
		t.Fatal("crashed on first occurrence")
	}
	if _, crash := h.PreSyscall(3, 0, sys.Recv); !crash {
		t.Fatal("second occurrence on another lane did not crash")
	}
}

func TestKernelHookStallInterleavingIndependent(t *testing.T) {
	// Stall decisions are a hash of (seed, variant, syscall,
	// occurrence): interleaving two variants' streams differently must
	// not change either variant's per-occurrence decisions.
	plan := KernelPlan{StallRate: 0.5, Stall: time.Microsecond}
	a := plan.Hook(7)
	b := plan.Hook(7)
	const n = 256
	seqA := make([]time.Duration, 0, 2*n)
	// a: strict alternation.
	for i := 0; i < n; i++ {
		for v := 0; v < 2; v++ {
			d, _ := a.PreSyscall(0, v, sys.Send)
			seqA = append(seqA, d)
		}
	}
	// b: variant 1's calls all first, then variant 0's.
	seqB := make([]time.Duration, 2*n)
	for i := 0; i < n; i++ {
		d, _ := b.PreSyscall(0, 1, sys.Send)
		seqB[2*i+1] = d
	}
	for i := 0; i < n; i++ {
		d, _ := b.PreSyscall(0, 0, sys.Send)
		seqB[2*i] = d
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d depends on interleaving: %v vs %v", i, seqA[i], seqB[i])
		}
	}
	stalls := 0
	for _, d := range seqA {
		if d > 0 {
			stalls++
		}
	}
	if stalls == 0 || stalls == len(seqA) {
		t.Errorf("stall rate 0.5 drew %d/%d stalls", stalls, len(seqA))
	}
}

func TestPlanRegistry(t *testing.T) {
	if _, err := PlanByName("no-such-plan"); err == nil {
		t.Error("unknown plan name accepted")
	}
	for _, p := range TransparentPlans() {
		if !p.Transparent {
			t.Errorf("TransparentPlans returned %s", p.Name)
		}
		if p.VariantFault() || p.PoolOnly() {
			t.Errorf("transparent plan %s strikes variants or only pools", p.Name)
		}
	}
	seen := map[string]bool{}
	for _, p := range Plans() {
		if seen[p.Name] {
			t.Errorf("duplicate plan %s", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"none", "net-mixed", "variant-crash", "variant-stall", "group-restart"} {
		if !seen[want] {
			t.Errorf("standard plan %s missing", want)
		}
	}
}
