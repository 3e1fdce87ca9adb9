package mesh

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nvariant/internal/fleet"
)

// lightFleet is the smallest per-pool template tests spin up.
func lightFleet(groups int) fleet.Options {
	return fleet.Options{Groups: groups}
}

func mustMesh(t *testing.T, opts Options) *Mesh {
	t.Helper()
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = m.Stop() })
	return m
}

// TestRouteKeyStableAndSpread: rendezvous routing is a pure function
// of (seed, key) — two meshes with the same seed agree on every key —
// and spreads keys across pools instead of piling onto one.
func TestRouteKeyStableAndSpread(t *testing.T) {
	opts := Options{Pools: 4, Seed: 11, Fleet: lightFleet(1)}
	m1 := mustMesh(t, opts)
	m2 := mustMesh(t, Options{Pools: 4, Seed: 11, Fleet: fleet.Options{Groups: 1, BasePort: 20000}})
	hit := make(map[int]int)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		p1, p2 := m1.RouteKey(key), m2.RouteKey(key)
		if p1 != p2 {
			t.Fatalf("key %q routes to pool %d on one mesh, %d on another (same seed)", key, p1, p2)
		}
		hit[p1]++
	}
	if len(hit) < 3 {
		t.Errorf("64 keys landed on only %d of 4 pools: %v", len(hit), hit)
	}
}

// TestRotationNeverBelowFloor is the availability regression test:
// with requests in flight and rotation triggering constantly, no
// sample of the pool's healthy count may ever fall below the
// configured floor.
func TestRotationNeverBelowFloor(t *testing.T) {
	const floor = 2
	m := mustMesh(t, Options{
		Pools:             1,
		RotateEvery:       4,
		AvailabilityFloor: floor,
		Seed:              3,
		Fleet:             lightFleet(3),
	})

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	minHealthy := int64(99)
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h := int64(m.Pool(0).HealthyCount()); h < minHealthy {
				minHealthy = h
			}
		}
	}()

	var load sync.WaitGroup
	for w := 0; w < 4; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			s := m.Session(fmt.Sprintf("worker-%d", w))
			for i := 0; i < 15; i++ {
				_, _, _ = s.Get("/index.html")
			}
		}(w)
	}
	load.Wait()
	if err := m.Await(func(s Stats) bool {
		return s.RotationsHandled >= m.Ticks()/4
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	sampler.Wait()

	st := m.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotation completed under load: %s", st)
	}
	if minHealthy < floor {
		t.Errorf("healthy groups dipped to %d, floor is %d", minHealthy, floor)
	}
}

// TestRotationSkipsAtFloor: a pool already at the floor never rotates
// — every trigger is counted as skipped and the pool stays whole.
func TestRotationSkipsAtFloor(t *testing.T) {
	m := mustMesh(t, Options{
		Pools:             1,
		RotateEvery:       2,
		AvailabilityFloor: 2, // == Groups: rotation would always violate it
		Fleet:             lightFleet(2),
	})
	s := m.Session("floor-probe")
	for i := 0; i < 8; i++ {
		if code, _, err := s.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	if err := m.Await(func(st Stats) bool { return st.RotationsHandled >= 4 }, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rotations != 0 {
		t.Errorf("rotated %d times below the floor", st.Rotations)
	}
	if st.RotationsSkipped < 4 {
		t.Errorf("skipped %d rotations, want ≥ 4", st.RotationsSkipped)
	}
	if h := m.Pool(0).HealthyCount(); h != 2 {
		t.Errorf("healthy = %d, want 2", h)
	}
}

// TestPoolPortIsolation: each pool's groups live strictly inside its
// slice of the shared port budget, so pools can never collide.
func TestPoolPortIsolation(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, Fleet: lightFleet(2)})
	base := fleet.DefaultBasePort
	for i := 0; i < m.Pools(); i++ {
		lo := base + uint16(i)*portStride
		hi := lo + portStride
		for _, g := range m.Pool(i).LiveGroups() {
			if g.Port < lo || g.Port >= hi {
				t.Errorf("pool %d group %d on port %d, want [%d,%d)", i, g.ID, g.Port, lo, hi)
			}
		}
	}
}

// TestMergedAuditTail: the mesh's Audit() source merges every pool's
// trail with pool tags (the fleet-of-fleets ops view).
func TestMergedAuditTail(t *testing.T) {
	m := mustMesh(t, Options{
		Pools:             2,
		RotateEvery:       2,
		AvailabilityFloor: 1,
		Seed:              9,
		Fleet:             lightFleet(2),
	})
	s := m.Session("audit-probe")
	for i := 0; i < 8; i++ {
		if _, _, err := s.Get("/index.html"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := m.Await(func(st Stats) bool { return st.Rotations >= 1 }, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	buf, last, err := m.Audit().TailNDJSON(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last == 0 || len(buf) == 0 {
		t.Fatalf("merged tail empty after rotations (last=%d)", last)
	}
	tail := string(buf)
	if !strings.Contains(tail, `"pool":"pool`) || !strings.Contains(tail, `"action":"rotate+replace"`) {
		t.Errorf("merged tail missing pool tag or rotation action:\n%s", tail)
	}
}
