package mesh

// The controller is the mesh's single consumer of rotation and
// elastic-sizing triggers. Triggers are counted by the dispatch hot
// path (atomic adds in Mesh.tick) and handed over through a capacity-1
// wake channel; the controller drains wanted-vs-handled deltas in a
// loop, so every trigger is processed exactly once regardless of
// goroutine timing — which is what makes seeded campaign runs
// byte-reproducible. All randomness (which pool rotates) comes from
// the controller-owned seeded RNG, a single consumer, so the decision
// sequence is a pure function of the seed and the trigger count.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/fleet"
)

type controller struct {
	m   *Mesh
	rng *rand.Rand

	// wanted counters are incremented by tick(); handled counters only
	// by the controller loop. handled == wanted means settled.
	rotWanted  atomic.Uint64
	rotHandled atomic.Uint64
	elWanted   atomic.Uint64
	elHandled  atomic.Uint64

	// Outcome counters (controller-written, Stats-read).
	rotated atomic.Uint64
	skipped atomic.Uint64
	grown   atomic.Uint64
	shrunk  atomic.Uint64

	wake   chan struct{}
	stop   chan struct{}
	halted sync.Once
}

func newController(m *Mesh, rng *rand.Rand) *controller {
	return &controller{m: m, rng: rng, wake: make(chan struct{}, 1), stop: make(chan struct{})}
}

// kick wakes the controller without blocking the dispatch path. A
// full channel means a wake is already pending; the loop re-reads the
// counters after every wake, so no trigger is lost.
func (c *controller) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// halt stops the loop; it is idempotent. Pending triggers are
// abandoned — Stop tears the pools down anyway; campaigns settle via
// Await first.
func (c *controller) halt() { c.halted.Do(func() { close(c.stop) }) }

func (c *controller) run() {
	defer c.m.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
		}
		for c.rotHandled.Load() < c.rotWanted.Load() {
			c.rotateOnce()
			c.rotHandled.Add(1)
		}
		for c.elHandled.Load() < c.elWanted.Load() {
			c.reviewOnce()
			c.elHandled.Add(1)
		}
	}
}

// rotateOnce performs one moving-target rotation: pick a pool from the
// seeded RNG, drain its oldest healthy group, and wait for the
// freshly-specced replacement to register. The availability floor is
// enforced *before* draining — a pool at or below the floor skips its
// turn (counted), so rotation never trades the moving target for an
// outage.
func (c *controller) rotateOnce() {
	m := c.m
	p := m.pools[c.rng.Intn(len(m.pools))]
	f := p.fleet
	// A sick pool is already absorbing faults — draining one of its
	// groups on schedule would stack administrative churn on top of
	// fault recovery and push it below the floor. Skip its turn (the
	// trigger still counts as handled; the RNG draw is already
	// consumed, so the seeded schedule stays aligned).
	if p.sick(m) {
		c.skipped.Add(1)
		if m.obs != nil {
			m.obs.rotSkipped.Inc()
		}
		return
	}
	before := f.Stats()
	healthy := len(before.Healthy)
	if healthy <= m.opts.AvailabilityFloor {
		c.skipped.Add(1)
		if m.obs != nil {
			m.obs.rotSkipped.Inc()
		}
		return
	}
	victim := oldestNonDraining(f.LiveGroups())
	if victim == nil {
		c.skipped.Add(1)
		if m.obs != nil {
			m.obs.rotSkipped.Inc()
		}
		return
	}
	start := time.Now()
	exposure := victim.Age
	if err := f.Rotate(victim.ID, m.opts.DrainTimeout); err != nil {
		// The group vanished between the roster read and the drain
		// (e.g. an alarm quarantined it) — the slot is being replaced
		// on the quarantine path already.
		c.skipped.Add(1)
		if m.obs != nil {
			m.obs.rotSkipped.Inc()
		}
		return
	}
	// Wait for the pool to replenish before counting the rotation
	// handled: campaigns await the settled counter, and the next
	// trigger must see the restored pool.
	_ = f.Await(func(s fleet.Stats) bool {
		return s.Rotated > before.Rotated && len(s.Healthy) >= healthy
	}, m.opts.RecoverTimeout)
	c.rotated.Add(1)
	if m.obs != nil {
		m.obs.rotations.Inc()
		m.obs.exposure.Observe(exposure)
		m.obs.drain.Observe(time.Since(start))
	}
}

// oldestNonDraining picks the rotation victim: the lowest id (ids are
// never reused, so lowest = longest-exposed mask set).
func oldestNonDraining(groups []fleet.GroupInfo) *fleet.GroupInfo {
	for i := range groups {
		if !groups[i].Draining {
			return &groups[i]
		}
	}
	return nil
}

// reviewOnce runs one elastic-sizing pass over every pool: compare the
// peak in-flight load since the last review against current capacity
// (healthy groups × worker lanes) and grow or shrink within
// [MinGroups, MaxGroups]. A sick pool grows regardless of load ratio —
// fault-induced pressure (sheds, failed dispatches, quarantines) is
// demand for capacity even when inflight never peaked — and is never
// shrunk while sick. Shrink retires the *newest* group — the oldest
// slots are the rotation scheduler's concern.
func (c *controller) reviewOnce() {
	m := c.m
	workers := m.opts.Fleet.Workers
	if workers < 1 {
		workers = 1
	}
	for _, p := range m.pools {
		peak := p.peak.Swap(0)
		f := p.fleet
		healthy := f.HealthyCount()
		if healthy == 0 {
			continue
		}
		sick := p.sick(m)
		ratio := float64(peak) / float64(healthy*workers)
		switch {
		case (ratio >= m.opts.GrowAt || sick) && healthy < m.opts.MaxGroups:
			if _, err := f.Grow(); err == nil {
				c.grown.Add(1)
				if m.obs != nil {
					m.obs.grows.Inc()
				}
			}
		case ratio <= m.opts.ShrinkAt && !sick && healthy > m.opts.MinGroups:
			groups := f.LiveGroups()
			for i := len(groups) - 1; i >= 0; i-- {
				if groups[i].Draining {
					continue
				}
				if f.Shrink(groups[i].ID, m.opts.DrainTimeout) == nil {
					c.shrunk.Add(1)
					if m.obs != nil {
						m.obs.shrinks.Inc()
					}
				}
				break
			}
		}
	}
}
