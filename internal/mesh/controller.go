package mesh

// The controller is the mesh's single consumer of rotation triggers.
// Triggers are counted by the dispatch hot path (atomic adds in
// Mesh.tick) and handed over through a capacity-1 wake channel; the
// controller drains the wanted-vs-handled delta in a loop, so every
// trigger is processed exactly once regardless of goroutine timing —
// which is what makes seeded campaign runs byte-reproducible. All randomness (which pool rotates) comes from
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

	// rotWanted is incremented by tick(), rotHandled only by the
	// controller loop. handled == wanted means settled.
	rotWanted  atomic.Uint64
	rotHandled atomic.Uint64

	// Outcome counters (controller-written, Stats-read).
	rotated atomic.Uint64
	skipped atomic.Uint64

	// progress, guarded by mu, is closed when the loop next handles a
	// trigger; it exists only while someone waits on it (see
	// progressed), so an unwatched controller allocates nothing.
	mu       sync.Mutex
	progress chan struct{}

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
		for !c.settled() {
			c.rotateOnce()
			c.rotHandled.Add(1)
			c.signal()
		}
	}
}

// settled reports whether every trigger fired so far has been handled.
func (c *controller) settled() bool { return c.rotHandled.Load() >= c.rotWanted.Load() }

// progressed returns a channel closed the next time the loop handles a
// trigger. A waiter takes the channel before it checks settled, so a
// trigger handled after that check always closes the channel it holds.
func (c *controller) progressed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.progress == nil {
		c.progress = make(chan struct{})
	}
	return c.progress
}

// signal wakes every waiter on progressed.
func (c *controller) signal() {
	c.mu.Lock()
	if c.progress != nil {
		close(c.progress)
		c.progress = nil
	}
	c.mu.Unlock()
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
	if err := f.Rotate(victim.ID, DefaultDrainTimeout); err != nil {
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
	// trigger must see the restored pool. Replaced is the fleet's last
	// replacement step, so a settled rotation leaves no fleet
	// bookkeeping in flight for the next request to race.
	_ = f.Await(func(s fleet.Stats) bool {
		return s.Rotated > before.Rotated && s.Replaced > before.Replaced && len(s.Healthy) >= healthy
	}, m.recoverTimeout)
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
