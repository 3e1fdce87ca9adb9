package nvkernel

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// reasonFromString parses a reason name back to its constant — the
// inverse of String for every defined reason; an unknown name returns
// false.
func reasonFromString(s string) (Reason, bool) {
	for r := Reason(1); r < reasonEnd; r++ {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

func TestReasonStringRoundTrip(t *testing.T) {
	// Every reason constant must render a unique name and parse back to
	// itself — the audit NDJSON contract. Ranging to the reasonEnd
	// sentinel means a newly appended constant cannot dodge this test.
	seen := map[string]Reason{}
	for r := Reason(1); r < reasonEnd; r++ {
		s := r.String()
		if s == "unknown" {
			t.Errorf("reason %d has no String case", r)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("reasons %d and %d share the name %q", prev, r, s)
		}
		seen[s] = r
		back, ok := reasonFromString(s)
		if !ok || back != r {
			t.Errorf("reasonFromString(%q) = %d, %v; want %d", s, back, ok, r)
		}
	}
	if _, ok := reasonFromString("no-such-reason"); ok {
		t.Error("reasonFromString accepted an unknown name")
	}
	for k := FaultCrash; k <= FaultStall; k++ {
		if k.String() == "unknown" {
			t.Errorf("fault kind %d has no String case", k)
		}
	}
}

// crashAt returns a hook crashing one variant at its nth occurrence of
// num (counted across the whole group).
func crashAt(variant int, num sys.Num, nth int) testHook {
	calls := 0
	var mu sync.Mutex
	return testHook{crash: func(_, v int, n sys.Num) bool {
		if v != variant || n != num {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls == nth
	}}
}

func TestQuorumCrashEvictsAndContinues(t *testing.T) {
	// K=2, N=3: variant 1 crashes at its second time(2). The group must
	// evict it, keep serving the rendezvous on variants {0, 2}, and
	// finish cleanly in degraded mode with the eviction on record.
	res := mustRun(t, newWorld(t), same(3, "crashy", func(ctx *sys.Context) error {
		for i := 0; i < 6; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), WithFaultHook(crashAt(1, sys.Time, 2)), WithQuorum(2), WithTimeout(5*time.Second))
	if res.Alarm != nil {
		t.Fatalf("degraded group alarmed: %+v", res.Alarm)
	}
	if !res.Clean {
		t.Fatalf("degraded group not clean: %+v", res)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want exactly one", res.Evictions)
	}
	ev := res.Evictions[0]
	if ev.Variant != 1 || ev.Kind != FaultCrash || ev.Live != 2 {
		t.Errorf("eviction = %+v, want variant 1, crash, 2 live", ev)
	}
	if !errors.Is(res.VariantErrs[1], sys.ErrCrashed) {
		t.Errorf("variant 1 error = %v, want ErrCrashed", res.VariantErrs[1])
	}
}

func TestQuorumCrashOfReferenceVariant(t *testing.T) {
	// Evicting variant 0 moves the cross-check reference to the lowest
	// survivor. The group must keep rendezvousing (including an output
	// write, which gathers payloads against the reference) and exit
	// cleanly.
	res := mustRun(t, newWorld(t), same(3, "refcrash", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		if err := ctx.WriteString(sys.FDStdout, "degraded ok\n"); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), WithFaultHook(crashAt(0, sys.Time, 2)), WithQuorum(2), WithTimeout(5*time.Second))
	if res.Alarm != nil || !res.Clean {
		t.Fatalf("clean=%v alarm=%+v", res.Clean, res.Alarm)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Variant != 0 {
		t.Fatalf("evictions = %+v, want variant 0", res.Evictions)
	}
	if string(res.Stdout) != "degraded ok\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestQuorumStallEvictsAndContinues(t *testing.T) {
	// K=2, N=3: variant 2 stalls far past the rendezvous deadline. The
	// lazily-checked timer detects the stall between 1x and 2x Timeout,
	// evicts the variant, and the survivors finish cleanly.
	stalls := 0
	var mu sync.Mutex
	hook := testHook{stall: func(_, variant int, num sys.Num) time.Duration {
		if variant != 2 || num != sys.Time {
			return 0
		}
		mu.Lock()
		defer mu.Unlock()
		stalls++
		if stalls == 2 {
			return time.Second
		}
		return 0
	}}
	res := mustRun(t, newWorld(t), same(3, "stalled", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), WithFaultHook(hook), WithQuorum(2), WithTimeout(30*time.Millisecond))
	if res.Alarm != nil || !res.Clean {
		t.Fatalf("clean=%v alarm=%+v", res.Clean, res.Alarm)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want exactly one", res.Evictions)
	}
	ev := res.Evictions[0]
	if ev.Variant != 2 || ev.Kind != FaultStall || ev.Live != 2 {
		t.Errorf("eviction = %+v, want variant 2, stall, 2 live", ev)
	}
}

func TestQuorumLostKillsGroup(t *testing.T) {
	t.Run("two-of-two", func(t *testing.T) {
		// K=2, N=2: any fault would drop below quorum, so the crash must
		// kill the group with a quorum-lost alarm — never a lone variant
		// silently serving.
		res := mustRun(t, newWorld(t), same(2, "crashy", func(ctx *sys.Context) error {
			for i := 0; i < 4; i++ {
				if _, err := vtime(ctx); err != nil {
					return err
				}
			}
			return ctx.Exit(0)
		}), WithFaultHook(crashAt(1, sys.Time, 2)), WithQuorum(2), WithTimeout(5*time.Second))
		if res.Alarm == nil || res.Alarm.Reason != ReasonQuorumLost {
			t.Fatalf("alarm = %+v, want quorum-lost", res.Alarm)
		}
		if res.Alarm.Variant != 1 {
			t.Errorf("alarm variant = %d, want 1", res.Alarm.Variant)
		}
		if len(res.Evictions) != 0 {
			t.Errorf("evictions = %+v, want none", res.Evictions)
		}
	})

	t.Run("second-fault", func(t *testing.T) {
		// K=2, N=3: the first crash is absorbed by eviction; the second
		// would leave a single variant, so it kills the group.
		calls := [3]int{}
		var mu sync.Mutex
		hook := testHook{crash: func(_, v int, n sys.Num) bool {
			if n != sys.Time {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			calls[v]++
			return (v == 1 && calls[v] == 2) || (v == 2 && calls[v] == 4)
		}}
		res := mustRun(t, newWorld(t), same(3, "crashy", func(ctx *sys.Context) error {
			for i := 0; i < 8; i++ {
				if _, err := vtime(ctx); err != nil {
					return err
				}
			}
			return ctx.Exit(0)
		}), WithFaultHook(hook), WithQuorum(2), WithTimeout(5*time.Second))
		if res.Alarm == nil || res.Alarm.Reason != ReasonQuorumLost {
			t.Fatalf("alarm = %+v, want quorum-lost", res.Alarm)
		}
		if len(res.Evictions) != 1 || res.Evictions[0].Variant != 1 {
			t.Fatalf("evictions = %+v, want exactly variant 1", res.Evictions)
		}
	})
}

func TestQuorumDivergenceAmongLiveStillAlarms(t *testing.T) {
	// The detection contract survives degraded mode: after variant 0 is
	// evicted, a divergence between the live variants {1, 2} must raise
	// the usual alarm — degraded mode masks faults, never attacks.
	res := mustRun(t, newWorld(t), same(3, "diverge", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		// Every live variant presents its own index: the corrupted-value
		// shape UID variation detects.
		if _, err := ctx.UIDValue(word.Word(ctx.Variant)); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), WithFaultHook(crashAt(0, sys.Time, 2)), WithQuorum(2), WithTimeout(5*time.Second))
	if res.Alarm == nil || res.Alarm.Reason != ReasonUIDDivergence {
		t.Fatalf("alarm = %+v, want uid-divergence", res.Alarm)
	}
	if res.Alarm.Variant != 2 {
		// Reference is the lowest live variant (1), so variant 2 is the
		// reported offender.
		t.Errorf("alarm variant = %d, want 2", res.Alarm.Variant)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Variant != 0 {
		t.Fatalf("evictions = %+v, want exactly variant 0", res.Evictions)
	}
}

func TestQuorumUnanimousDefaultUnchanged(t *testing.T) {
	// Without WithQuorum a crash still kills the whole group with the
	// original variant-fault alarm — the paper's contract is the
	// default, not an opt-in.
	res := mustRun(t, newWorld(t), same(3, "crashy", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	}), WithFaultHook(crashAt(1, sys.Time, 2)), WithTimeout(5*time.Second))
	if res.Alarm == nil || res.Alarm.Reason != ReasonVariantFault {
		t.Fatalf("alarm = %+v, want variant-fault", res.Alarm)
	}
	if len(res.Evictions) > 0 {
		t.Errorf("unanimous group reported degraded: %+v", res.Evictions)
	}
}

// startEchoWith is startEcho with kernel options (quorum tests).
func startEchoWith(t *testing.T, w *vos.World, net *simnet.Network, n int, srv func() *echoServer, opts ...Option) (port uint16, done chan *Result) {
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
		res, err := Run(w, net, progs, opts...)
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

func TestQuorumEvictionServesAcrossWorkerLanes(t *testing.T) {
	// A prefork group under quorum: the eviction observed by one lane's
	// monitor must propagate to every worker lane (group-wide live
	// set), and the degraded group must keep serving connections on all
	// lanes. Teardown must leak no goroutines even with the evicted
	// variant's goroutines unwound mid-run.
	before := runtime.NumGoroutine()

	w := newWorld(t)
	net := simnet.New(0)
	port, done := startEchoWith(t, w, net, 3, func() *echoServer {
		return &echoServer{workers: 3, port: 9300}
	}, WithQuorum(2), WithFaultHook(crashAt(1, sys.Recv, 2)), WithTimeout(2*time.Second))

	// Serve enough connections to cross the crash trigger and exercise
	// every lane afterwards.
	for i := 0; i < 9; i++ {
		conn, err := net.Dial(port)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		echoOnce(t, conn, "quorum-served")
		_ = conn.Close()
	}

	_ = net.ShutdownPort(port)
	res := <-done
	if res.Alarm != nil {
		t.Fatalf("degraded group alarmed: %+v", res.Alarm)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Variant != 1 {
		t.Fatalf("evictions = %+v, want exactly variant 1", res.Evictions)
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d, want 3", res.Workers)
	}
	testutil.CheckNoGoroutineLeak(t, before, 2)
}

func TestQuorumEvictionRacesLaneKill(t *testing.T) {
	// -race stress: a divergence alarm (group kill) fires while a crash
	// eviction is in flight on a sibling lane. Whatever the
	// interleaving, the group must end with an alarm (the detection
	// contract outranks degraded mode), never panic, and leak nothing.
	for round := 0; round < 8; round++ {
		before := runtime.NumGoroutine()
		w := newWorld(t)
		net := simnet.New(0)
		port, done := startEchoWith(t, w, net, 3, func() *echoServer {
			return &echoServer{workers: 4, port: 9301, diverge: true}
		}, WithQuorum(2), WithFaultHook(crashAt(2, sys.Recv, 3+round%3)), WithTimeout(2*time.Second))

		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					conn, err := net.Dial(port)
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
		// Poison one connection concurrently with the crash trigger.
		if conn, err := net.Dial(port); err == nil {
			_ = conn.Send([]byte("DIVERGE"))
			_, _ = conn.Recv()
			_ = conn.Close()
		}
		wg.Wait()
		res := <-done
		if res.Alarm == nil {
			t.Fatalf("round %d: poisoned group did not alarm: %+v", round, res)
		}
		testutil.CheckNoGoroutineLeak(t, before, 3)
	}
}

func TestQuorumSteadyStateAddsNoAllocs(t *testing.T) {
	// Degraded mode's live set is a bitmask synced per round: after an
	// eviction the rendezvous loop must stay allocation-free, exactly
	// like the unanimous hot path the bench gate proves.
	w := newWorld(t)
	iters := 20000
	start := make(chan struct{})
	var warm sync.WaitGroup
	warm.Add(2) // the two survivors
	progs := same(3, "spin", func(ctx *sys.Context) error {
		for i := 0; i < 4; i++ {
			if _, err := vtime(ctx); err != nil {
				if errors.Is(err, sys.ErrCrashed) {
					return err
				}
				return err
			}
		}
		warm.Done()
		<-start
		for k := 0; k < iters; k++ {
			if _, err := vtime(ctx); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	})
	var res *Result
	var runErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		res, runErr = Run(w, simnet.New(0), progs,
			WithFaultHook(crashAt(1, sys.Time, 2)), WithQuorum(2), WithTimeout(5*time.Second))
	}()
	warm.Wait() // both survivors past the eviction and parked at start
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	close(start)
	<-finished
	runtime.ReadMemStats(&m1)
	if runErr != nil || res.Alarm != nil || !res.Clean {
		t.Fatalf("run: %v alarm=%+v clean=%v", runErr, res.Alarm, res.Clean)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want one", res.Evictions)
	}
	allocs := m1.Mallocs - m0.Mallocs
	// The measured window covers iters degraded rendezvous plus run
	// teardown; allow a small fixed overhead for the latter.
	if perOp := float64(allocs) / float64(iters); perOp > 0.01 {
		t.Errorf("degraded steady state allocates: %d allocs over %d rendezvous (%.4f/op)", allocs, iters, perOp)
	}
}
