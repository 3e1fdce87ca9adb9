// Package mesh scales the fleet's single pool to a sharded
// fleet-of-fleets: P independent pools, each a fleet.Fleet on its own
// simulated network segment with its own slice of a shared port
// budget, behind a session router that maps client keys to pools by
// rendezvous hashing.
//
// One controller runs above the pools, driven by the mesh's own
// rendezvous-ticked clock (one tick per completed dispatch, no wall
// clock — so seeded runs are byte-reproducible): moving-target
// rotation. On a seeded schedule it drains a *healthy* group and
// replaces it with a freshly generated DiversitySpec, so the
// reexpression masks an attacker could be probing expire even when
// the monitor never fires. Rotation is availability-aware: a pool
// never rotates below the configured floor of healthy groups.
//
// Admission control is per pool: a bounded in-flight budget sheds
// excess load with the typed ErrSaturated instead of queueing without
// bound — backpressure the caller can act on.
package mesh

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/simnet"
)

// DefaultPools is the default shard count P.
const DefaultPools = 2

// DefaultDrainTimeout bounds how long a rotating group may finish
// in-flight connections before its listener closes.
const DefaultDrainTimeout = 2 * time.Second

// Fixed mesh parameters: one value serves every caller (DESIGN.md,
// "Options").
const (
	// portStride is each pool's slice of the shared port budget: pool
	// i draws group ports from [BasePort+i*stride, BasePort+(i+1)*stride).
	portStride uint16 = 512
	// recoverTimeout bounds how long the rotation controller waits for
	// a pool to replenish after draining a group, and how long a retry
	// waits for the controller to settle.
	recoverTimeout = 15 * time.Second
	// retryBackoff is the base retry backoff in mesh ticks; the k-th
	// retry of a dispatch backs off retryBackoff << (k-1) ticks before
	// re-routing.
	retryBackoff uint64 = 2
)

// ErrSaturated is returned by Session dispatch when the routed pool's
// in-flight budget is spent — the admission controller shedding load
// instead of queueing it. Callers distinguish it with errors.Is.
var ErrSaturated = errors.New("mesh: pool saturated (admission shed)")

// errMeshClosed reports an operation against a stopped mesh.
var errMeshClosed = errors.New("mesh: stopped")

// RouterPolicy selects how session keys map to pools. It has one
// value: the campaigns and benchmarks report the policy they ran under
// ("policy": "hash" in the campaign JSON), and a second policy would
// need a caller that measures it.
type RouterPolicy int

// HashRouting is rendezvous (highest-random-weight) consistent hashing
// over seeded per-pool salts: every key has a stable home pool, and
// re-sizing the mesh would move only the minimal share of keys.
const HashRouting RouterPolicy = 0

// String names the policy for reports.
func (p RouterPolicy) String() string {
	switch p {
	case HashRouting:
		return "hash"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a mesh.
type Options struct {
	// Pools is the shard count P (default DefaultPools).
	Pools int
	// Policy selects key→pool routing (default HashRouting).
	Policy RouterPolicy
	// MaxInflight bounds each pool's concurrent dispatches; excess is
	// shed with ErrSaturated. 0 means unbounded (no admission control).
	MaxInflight int
	// RotateEvery, when non-zero, triggers one moving-target rotation
	// every RotateEvery mesh ticks (completed dispatches). The rotated
	// pool is drawn from the mesh's seeded RNG; the victim is the
	// pool's oldest healthy group.
	RotateEvery uint64
	// AvailabilityFloor is the healthy-group count a pool must keep
	// while rotating: a rotation that would drop a pool to or below the
	// floor is skipped (and counted). Default: Fleet.Groups-1, min 1.
	AvailabilityFloor int
	// Seed drives pool-fleet seeds, router salts, and the rotation
	// schedule; 0 means a fixed default so runs are reproducible.
	Seed int64
	// RetryBudget, when positive, lets a session retry a failed
	// dispatch up to RetryBudget times: each retry backs off a
	// vtick-counted window (retryBackoff << attempt, charged to the
	// mesh clock) and re-routes to the next-ranked rendezvous pool.
	// An exhausted budget surfaces as ErrRetriesExhausted. 0 disables
	// retries; the single-attempt path is unchanged and allocation-free.
	RetryBudget int
	// Faults, when set, is called once per pool with the pool's derived
	// fleet seed and returns the fault injector installed on that
	// pool's network segment — the chaos data-plane plans threaded
	// through routing. Nil pools run fault-free.
	Faults func(poolSeed int64) simnet.FaultInjector
	// Kernel, when set, is called once per pool with the pool's derived
	// fleet seed and returns the kernel options (fault hooks) every
	// group in that pool — initial, replacement, and respawned — runs
	// with.
	Kernel func(poolSeed int64) []nvkernel.Option
	// Fleet is the per-pool fleet template. Seed, BasePort, PortSpan,
	// Faults, Kernel, and Obs are derived per pool from the mesh
	// options; everything else applies as given.
	Fleet fleet.Options
	// Obs, when set, instruments the mesh (mesh_* series) and every
	// pool fleet under it. Nil runs uninstrumented.
	Obs *obs.Registry
}

// withDefaults fills zero-valued options.
func (o Options) withDefaults() Options {
	if o.Pools <= 0 {
		o.Pools = DefaultPools
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	groups := o.Fleet.Groups
	if groups <= 0 {
		groups = fleet.DefaultGroups
	}
	if o.AvailabilityFloor <= 0 {
		o.AvailabilityFloor = groups - 1
		if o.AvailabilityFloor < 1 {
			o.AvailabilityFloor = 1
		}
	}
	return o
}

// pool is one shard: a fleet on its own network segment plus the
// mesh-level admission and load accounting.
type pool struct {
	id    int
	fleet *fleet.Fleet
	// inflight is the pool's current mesh-level dispatch count, bounded
	// by MaxInflight via CAS admission.
	inflight atomic.Int64
	// served / shed are the pool's settled dispatch outcomes.
	served atomic.Int64
	shed   atomic.Int64
	// health is the pool's fixed-point fault-penalty score, decayed
	// lazily on the mesh tick clock (see health.go); healthTick is the
	// tick the score was last decayed to.
	health     atomic.Int64
	healthTick atomic.Uint64
}

// admit reserves one in-flight slot, or reports saturation. limit <= 0
// disables admission control but still counts the slot.
func (p *pool) admit(limit int64) bool {
	for {
		cur := p.inflight.Load()
		if limit > 0 && cur >= limit {
			return false
		}
		if p.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Mesh is a sharded fleet-of-fleets behind a session router.
type Mesh struct {
	opts  Options
	pools []*pool
	// salts are the seeded per-pool rendezvous-hash weights.
	salts []uint64
	// ticks is the mesh clock: one tick per completed dispatch plus one
	// per charged retry-backoff tick — the wall-clock-free cadence
	// rotation and health decay run on. Backoff charges advance the
	// clock so the controller sees fault-induced stalls as elapsed
	// time.
	ticks atomic.Uint64
	// dispatched counts completed dispatches only (Stats.Dispatched);
	// it diverges from ticks once retries charge backoff.
	dispatched atomic.Uint64
	// retries / reroutes / backoffTicks are the retry machinery's
	// settled outcomes: attempts past the first, attempts that landed
	// on a different pool than the session's home, and total backoff
	// ticks charged to the clock.
	retries      atomic.Uint64
	reroutes     atomic.Uint64
	backoffTicks atomic.Uint64
	ctl          *controller
	audit        *fleet.MultiAudit
	obs          *metrics
	wg           sync.WaitGroup
	// recoverTimeout bounds rotation replenishment and settle waits: the
	// package constant, held per mesh so in-package tests can shorten it.
	recoverTimeout time.Duration

	mu     sync.Mutex
	closed bool
}

// New builds P pools and starts the controller. Pool i runs on its own
// network segment with seed derived from Options.Seed (so pools are
// diversity-independent) and port budget [BasePort+i*stride, +stride).
func New(opts Options) (*Mesh, error) {
	opts = opts.withDefaults()
	base := opts.Fleet.BasePort
	if base == 0 {
		base = fleet.DefaultBasePort
	}
	span := int(base) + opts.Pools*int(portStride)
	if span > 1<<16 {
		return nil, fmt.Errorf("mesh: %d pools × stride %d from base %d overflow the port space", opts.Pools, portStride, base)
	}
	m := &Mesh{
		opts:           opts,
		salts:          make([]uint64, opts.Pools),
		audit:          fleet.NewMultiAudit(),
		recoverTimeout: recoverTimeout,
	}
	// The controller struct exists before any pool starts so Stats is
	// safe on every path, including Stop during a failed New.
	m.ctl = newController(m, rand.New(rand.NewSource(opts.Seed)))
	for i := range m.salts {
		m.salts[i] = splitmix64(uint64(opts.Seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	}
	for i := 0; i < opts.Pools; i++ {
		fo := opts.Fleet
		fo.BasePort = base + uint16(i)*portStride
		fo.PortSpan = portStride
		fo.Seed = poolSeed(opts.Seed, i)
		fo.Obs = opts.Obs
		// Per-pool fault threading: each pool's injector and kernel
		// hooks draw from the pool's own derived seed, and the fleet
		// carries them into every group it ever spawns — initial,
		// replacement, and respawned.
		if opts.Faults != nil {
			fo.Faults = opts.Faults(fo.Seed)
		}
		if opts.Kernel != nil {
			fo.Kernel = opts.Kernel(fo.Seed)
		}
		f, err := fleet.New(fo)
		if err != nil {
			_, _ = m.Stop()
			return nil, fmt.Errorf("mesh: start pool %d: %w", i, err)
		}
		p := &pool{id: i, fleet: f}
		m.pools = append(m.pools, p)
		m.audit.Attach("pool"+strconv.Itoa(i), f.Audit())
	}
	if opts.Obs != nil {
		m.obs = newMetrics(opts.Obs, m)
	}
	m.wg.Add(1)
	go m.ctl.run()
	return m, nil
}

// poolSeed derives pool i's fleet seed from the mesh seed so every
// pool draws independent reexpression masks.
func poolSeed(seed int64, i int) int64 {
	s := int64(splitmix64(uint64(seed) + uint64(i)*0xbf58476d1ce4e5b9))
	if s == 0 {
		s = 1
	}
	return s
}

// Pools returns the shard count P.
func (m *Mesh) Pools() int { return len(m.pools) }

// Pool returns shard i's fleet — the chaos campaign's direct line to a
// pool's network segment and audit log.
func (m *Mesh) Pool(i int) *fleet.Fleet { return m.pools[i].fleet }

// Audit returns the merged, vtime-ordered recovery trail of every
// pool (an obs.AuditSource for the ops /audit endpoint).
func (m *Mesh) Audit() *fleet.MultiAudit { return m.audit }

// Ticks returns the mesh clock: completed dispatches plus charged
// retry-backoff ticks.
func (m *Mesh) Ticks() uint64 { return m.ticks.Load() }

// tick advances the mesh clock (one completed dispatch or one charged
// backoff tick) and fires a rotation on its cadence. Hot path: atomic
// adds and a non-blocking channel send only.
func (m *Mesh) tick() {
	t := m.ticks.Add(1)
	if re := m.opts.RotateEvery; re > 0 && t%re == 0 {
		m.ctl.rotWanted.Add(1)
		m.ctl.kick()
	}
}

// chargeBackoff advances the mesh clock by n backoff ticks, one at a
// time so every cadence boundary inside the window still fires its
// trigger. The clock is the only notion of time retries wait on —
// never the wall clock — which keeps seeded campaigns byte-identical.
func (m *Mesh) chargeBackoff(n uint64) {
	m.backoffTicks.Add(n)
	if m.obs != nil {
		m.obs.backoff.Add(n)
	}
	for i := uint64(0); i < n; i++ {
		m.tick()
	}
}

// settleControllers blocks until every rotation trigger fired so far
// has been fully handled, or fails with ErrSettleTimeout once
// recoverTimeout has passed. The retry path calls this after charging
// backoff: on the vtick clock, "waiting out the backoff" means letting
// the rotations those ticks scheduled finish — which is also what
// keeps a retried dispatch from racing a rotation its own backoff
// triggered, so seeded campaign runs stay byte-identical. The
// controller signals each handled trigger, so the wait wakes on
// progress rather than polling; a deadline that expires is reported,
// never silently carried past.
func (m *Mesh) settleControllers() error {
	c := m.ctl
	progress := c.progressed()
	if c.settled() {
		return nil
	}
	deadline := time.NewTimer(m.recoverTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-progress:
		case <-deadline.C:
			return fmt.Errorf("%w: rotation %d/%d handled within %v", ErrSettleTimeout,
				c.rotHandled.Load(), c.rotWanted.Load(), m.recoverTimeout)
		}
		progress = c.progressed()
		if c.settled() {
			return nil
		}
	}
}

// PoolStats is one shard's snapshot.
type PoolStats struct {
	Pool   int
	Served int64
	Shed   int64
	Fleet  fleet.Stats
}

// Stats is a point-in-time mesh snapshot.
type Stats struct {
	// Policy is the active routing policy.
	Policy RouterPolicy
	// Dispatched counts completed dispatches. The mesh clock (Ticks)
	// additionally counts charged retry-backoff ticks.
	Dispatched uint64
	// Shed counts dispatches refused by admission control.
	Shed int64
	// Retries counts dispatch attempts past each request's first;
	// Reroutes counts retries that landed on a pool other than the
	// session's home; BackoffTicks is the total backoff charged to the
	// mesh clock.
	Retries      uint64
	Reroutes     uint64
	BackoffTicks uint64
	// Rotations / RotationsSkipped are the controller's moving-target
	// outcomes; Handled = Rotations + RotationsSkipped triggers fully
	// processed.
	Rotations        uint64
	RotationsSkipped uint64
	RotationsHandled uint64
	// DegradedPools counts shards with at least one group serving on a
	// K-of-N quorum (an eviction absorbed, respawn pending) — the
	// mesh-wide availability-exposure number quorum campaigns gate on.
	DegradedPools int
	// Pools lists per-shard snapshots in shard order.
	Pools []PoolStats
}

// String renders a one-line mesh summary plus per-pool lines.
func (s Stats) String() string {
	out := fmt.Sprintf("mesh[%s]: %d pools, %d dispatched, %d shed, %d retries (%d rerouted, %d backoff ticks), %d rotations (%d skipped)",
		s.Policy, len(s.Pools), s.Dispatched, s.Shed, s.Retries, s.Reroutes, s.BackoffTicks, s.Rotations, s.RotationsSkipped)
	for _, p := range s.Pools {
		out += fmt.Sprintf("\n pool %d: served=%d shed=%d healthy=%d detections=%d rotated=%d",
			p.Pool, p.Served, p.Shed, len(p.Fleet.Healthy), p.Fleet.Detections, p.Fleet.Rotated)
	}
	return out
}

// Stats snapshots the mesh.
func (m *Mesh) Stats() Stats {
	s := Stats{
		Policy:           m.opts.Policy,
		Dispatched:       m.dispatched.Load(),
		Retries:          m.retries.Load(),
		Reroutes:         m.reroutes.Load(),
		BackoffTicks:     m.backoffTicks.Load(),
		Rotations:        m.ctl.rotated.Load(),
		RotationsSkipped: m.ctl.skipped.Load(),
		RotationsHandled: m.ctl.rotHandled.Load(),
	}
	for _, p := range m.pools {
		s.Shed += p.shed.Load()
		ps := PoolStats{
			Pool:   p.id,
			Served: p.served.Load(),
			Shed:   p.shed.Load(),
			Fleet:  p.fleet.Stats(),
		}
		if ps.Fleet.DegradedGroups > 0 {
			s.DegradedPools++
		}
		s.Pools = append(s.Pools, ps)
	}
	return s
}

// Await polls Stats until cond holds or timeout elapses — rotation and
// replacement are asynchronous, so campaigns settle explicitly.
func (m *Mesh) Await(cond func(Stats) bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s := m.Stats()
		if cond(s) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mesh: condition not met within %v: %s", timeout, s)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Stop halts the controller, stops every pool, and returns the final
// stats (first pool error wins).
func (m *Mesh) Stop() (Stats, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return m.Stats(), errMeshClosed
	}
	m.closed = true
	m.mu.Unlock()

	if m.ctl != nil {
		m.ctl.halt()
	}
	m.wg.Wait()
	var firstErr error
	for _, p := range m.pools {
		if _, err := p.fleet.Stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return m.Stats(), firstErr
}

// splitmix64 is the finalizer used for salts, pool seeds, and
// rendezvous weights — full-avalanche so adjacent inputs decorrelate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
