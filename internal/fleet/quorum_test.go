package fleet_test

// Fleet-level quorum tests: a group that evicts a faulted variant must
// keep serving on its K-of-N quorum, surface the eviction in the audit
// log and stats, and be drained + respawned at full width in the
// background. Run with -race (CI does).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/nvkernel"
	"nvariant/internal/sys"
)

// crashOnce is an nvkernel.FaultHook crashing one variant at its nth
// occurrence of num, counted across the whole fleet (the hook is shared
// by every group's kernel).
type crashOnce struct {
	mu      sync.Mutex
	variant int
	num     sys.Num
	nth     int
	calls   int
}

func (h *crashOnce) PreSyscall(_, variant int, num sys.Num) (time.Duration, bool) {
	if variant != h.variant || num != h.num {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	return 0, h.calls == h.nth
}

func TestFleetQuorumEvictionRespawns(t *testing.T) {
	hook := &crashOnce{variant: 1, num: sys.Recv, nth: 3}
	f := startFleet(t, fleet.Options{
		Groups:   2,
		Variants: 3,
		Quorum:   2,
		Kernel:   []nvkernel.Option{nvkernel.WithFaultHook(hook)},
	})
	client := f.Client()

	// Drive requests until one group hits the injected crash and evicts
	// the variant. No alarm: a fault is not an attack.
	deadline := time.Now().Add(15 * time.Second)
	for f.Stats().Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction never happened")
		}
		if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("request during degraded window = %d, %v", code, err)
		}
	}

	// The degraded group keeps serving on its 2-of-3 quorum while the
	// background respawn drains it; the fleet must not drop below the
	// configured width once the replacement registers.
	if err := f.Await(func(s fleet.Stats) bool {
		return s.Respawned == 1 && s.DegradedGroups == 0 && len(s.Healthy) == 2
	}, 20*time.Second); err != nil {
		t.Fatalf("respawn never settled: %v (stats %+v)", err, f.Stats())
	}
	for i := 0; i < 8; i++ {
		if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("post-respawn request %d = %d, %v", i, code, err)
		}
	}

	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions != 1 || stats.Respawned != 1 {
		t.Errorf("evictions = %d respawned = %d, want 1/1", stats.Evictions, stats.Respawned)
	}
	if stats.Detections != 0 || stats.Quarantined != 0 {
		t.Errorf("fault counted as detection/quarantine: %+v", stats)
	}

	// Audit trail: an "evict" entry carrying the kernel's eviction
	// detail and virtual time, then the "respawn+replace" for the same
	// group with a fresh spec.
	entries := f.Audit().Entries()
	var evict, respawn *fleet.AuditEntry
	for i := range entries {
		switch entries[i].Action {
		case "evict":
			evict = &entries[i]
		case "respawn+replace":
			respawn = &entries[i]
		}
	}
	if evict == nil {
		t.Fatalf("no evict audit entry: %+v", entries)
	}
	if evict.VTime == 0 {
		t.Errorf("evict entry has no virtual time: %+v", evict)
	}
	if !strings.Contains(evict.Detail, "variant 1 evicted (crash") {
		t.Errorf("evict detail = %q", evict.Detail)
	}
	if evict.Alarm != nil {
		t.Errorf("evict entry carries an alarm: %+v", evict.Alarm)
	}
	if respawn == nil {
		t.Fatalf("no respawn+replace audit entry: %+v", entries)
	}
	if respawn.GroupID != evict.GroupID {
		t.Errorf("respawned group %d != evicted group %d", respawn.GroupID, evict.GroupID)
	}
	if respawn.ReplacementID < 0 || respawn.ReplacementR1 == "" {
		t.Errorf("respawn entry missing replacement spec: %+v", respawn)
	}
}

// TestFleetQuorumRespawnUnderLoadRace hammers the pooled response
// buffers across the eviction → drain → respawn window: held
// response bodies must never be scribbled on by a recycled buffer even
// while the degraded group's slot is torn down and re-registered
// concurrently with dispatch. Payload aliasing fails the body checks —
// and trips -race.
func TestFleetQuorumRespawnUnderLoadRace(t *testing.T) {
	hook := &crashOnce{variant: 2, num: sys.Recv, nth: 5}
	f := startFleet(t, fleet.Options{
		Groups:   2,
		Variants: 3,
		Quorum:   2,
		Workers:  2,
		Kernel:   []nvkernel.Option{nvkernel.WithFaultHook(hook)},
	})
	const want = "<html><body><h1>It works!</h1></body></html>\n"

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := f.Client()
			held := make([][]byte, 0, 5)
			for i := 0; i < 40; i++ {
				code, body, err := client.Get("/index.html")
				if err != nil || code != 200 {
					// A request caught mid-drain may be refused; the
					// availability assertions below are the gate.
					continue
				}
				held = append(held, body)
				if len(held) == cap(held) {
					for _, h := range held {
						if string(h) != want {
							errs <- fmt.Errorf("held body mutated across respawn: %q", h)
							return
						}
					}
					held = held[:0]
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := f.Await(func(s fleet.Stats) bool {
		return s.Evictions == 1 && s.Respawned == 1 && len(s.Healthy) == 2
	}, 20*time.Second); err != nil {
		t.Fatalf("respawn never settled: %v (stats %+v)", err, f.Stats())
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 0 {
		t.Errorf("fault counted as detection: %+v", stats)
	}
}

// TestFleetEvictionDuringReadinessProbe crashes a variant on the very
// first recv, which is the readiness probe of the first group, before
// the fleet has registered that group. The eviction must still be
// counted, and the group must still be respawned and leave the
// degraded set.
func TestFleetEvictionDuringReadinessProbe(t *testing.T) {
	hook := &crashOnce{variant: 1, num: sys.Recv, nth: 1}
	f := startFleet(t, fleet.Options{
		Groups:   1,
		Variants: 3,
		Quorum:   2,
		Kernel:   []nvkernel.Option{nvkernel.WithFaultHook(hook)},
	})
	if err := f.Await(func(s fleet.Stats) bool {
		return s.Evictions == 1 && s.Respawned == 1 && s.DegradedGroups == 0 && len(s.Healthy) == 1
	}, 20*time.Second); err != nil {
		t.Fatalf("probe-time eviction not recovered: %v (stats %+v)", err, f.Stats())
	}
	if code, _, err := f.Client().Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("request after respawn = %d, %v", code, err)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions != 1 || stats.Respawned != 1 || stats.Detections != 0 {
		t.Errorf("evictions = %d respawned = %d detections = %d, want 1/1/0",
			stats.Evictions, stats.Respawned, stats.Detections)
	}
}
