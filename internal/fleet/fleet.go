// Package fleet scales the paper's single two-variant process group to
// a pool of M independent N-variant groups behind one dispatcher — the
// deployment story the paper's monitor needs to *survive* detection.
//
// Each pool member is a harness-built Table 3 configuration 4 group
// listening on its own port of a shared simulated network. A front
// listener load-balances incoming client connections round-robin
// across healthy groups. When any group's monitor raises an alarm, the
// fleet quarantines the group, records the event in an append-only
// audit log, and spawns a fresh replacement whose UID reexpression
// functions are newly selected — so a captured-and-killed group tells
// an attacker nothing about the pool that replaces it, and
// the service degrades by one group for milliseconds instead of
// collapsing. Related work quantifies exactly this construction:
// algorithm/implementation-diverse replica pools degrade gracefully
// where a monoculture collapses under a single exploit (arXiv:2111.10090,
// arXiv:1904.12409).
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
)

// Default option values.
const (
	// DefaultGroups is the default pool size.
	DefaultGroups = 4
	// DefaultBasePort is where group ports are allocated from. Fresh
	// ports are taken monotonically, and a quarantined group's port is
	// recycled once its listener has closed — so ports identify pool
	// slots over time, not groups (group IDs are the never-reused
	// identifier).
	DefaultBasePort uint16 = 9000
)

// frontPort is the dispatcher's client-facing port, below every group
// port.
const frontPort uint16 = 80

// Options configures a fleet.
type Options struct {
	// Groups is the pool size M (default DefaultGroups). Every group
	// runs Table 3's configuration 4, the paper's full system.
	Groups int
	// Variants is the per-group variant count N (default 2, the
	// paper's deployment). Detection effectiveness grows with N; every
	// group's DiversitySpec is generated at this width.
	Variants int
	// Stack is the variation stack generated for each group's spec
	// (default: uid + address-partition + unshared-files, the paper's
	// full §4 deployment).
	Stack []reexpress.LayerKind
	// Workers is the per-group prefork worker-lane count (0/1 = serial
	// groups): each group serves Workers connections concurrently.
	Workers int
	// Server configures the httpd program of every group.
	Server httpd.Options
	// BasePort is the first group port (default DefaultBasePort).
	BasePort uint16
	// PortSpan, when non-zero, bounds the pool's port budget: group
	// ports are drawn from [BasePort, BasePort+PortSpan) and spawn
	// fails cleanly when the budget is exhausted with no quarantined
	// port free to recycle. A mesh slices one shared port space into
	// per-pool spans this way, so pools never collide.
	PortSpan uint16
	// Seed drives reexpression-mask selection; 0 means a fixed default
	// so runs are reproducible unless explicitly varied.
	Seed int64
	// Faults is an optional fault injector installed on the fleet's
	// shared network before any group starts — the chaos campaign's
	// way of disturbing the whole data plane, including the single
	// client↔group hop of every front-door connection.
	Faults simnet.FaultInjector
	// Kernel holds extra kernel options every spawned group (initial
	// or replacement) is built with — e.g. a chaos fault hook.
	Kernel []nvkernel.Option
	// Quorum, when K ≥ 1, runs every group's rendezvous in K-of-N
	// degraded mode: a variant fault with ≥ K live survivors evicts the
	// faulted variant instead of killing the group, the fleet records
	// the eviction in the audit log, and the degraded group is drained
	// and respawned in the background with a freshly generated spec
	// (the moving-target rotate machinery). 0 keeps the unanimous
	// contract: any variant fault kills the group.
	Quorum int
	// Obs, when set, instruments the whole stack under this fleet:
	// fleet dispatch/quarantine series plus the kernel, simnet, and
	// httpd metric sets of every group (replacements included) are
	// registered on it. Nil runs uninstrumented.
	Obs *obs.Registry
}

// withDefaults fills zero-valued options.
func (o Options) withDefaults() Options {
	if o.Groups <= 0 {
		o.Groups = DefaultGroups
	}
	if o.Variants <= 0 {
		o.Variants = 2
	}
	// Server needs no defaulting: httpd.New fills ConfigPath itself,
	// and overwriting the struct here would discard caller fields.
	if o.BasePort == 0 {
		o.BasePort = DefaultBasePort
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// errClosed reports an operation against a stopped fleet.
var errClosed = errors.New("fleet: stopped")

// Fleet is a dispatcher-fronted pool of N-variant server groups with
// quarantine-on-alarm recovery.
type Fleet struct {
	opts  Options
	net   *simnet.Network
	front *simnet.Listener
	audit *AuditLog

	mu     sync.Mutex
	groups []*group
	// pool is the dispatcher's lock-free snapshot of groups: an
	// immutable slice republished (under mu) on every roster change,
	// so pick() on the per-connection hot path never contends with
	// spawn/quarantine bookkeeping.
	pool        atomic.Pointer[[]*group]
	nextID      int
	nextPort    uint16
	freePorts   []uint16
	spawned     int
	detections  int
	quarantined int
	replaced    int
	rotated     int
	evictions   int
	respawned   int
	closed      bool
	// starting holds the evictions of groups spawn has not registered
	// yet, keyed by group id: a variant can fault during the readiness
	// probe, and registration replays what arrived meanwhile.
	starting map[int][]nvkernel.Eviction

	// rng draws every spawned group's spec, under mu.
	rng *rand.Rand

	rr             atomic.Uint64
	dispatched     atomic.Int64
	dispatchErrors atomic.Int64
	// alarms / quorumKills mirror the mu-guarded detection ledger as
	// lock-free counters: the mesh session snapshots them around each
	// dispatch to classify transport errors (quarantine window vs
	// quorum-lost kill) without taking the fleet lock on the hot path.
	alarms      atomic.Uint64
	quorumKills atomic.Uint64
	wg          sync.WaitGroup

	// obs is the registered metric set, nil when Options.Obs is unset.
	obs *metrics
}

// New builds the pool, starts every group, and begins dispatching on
// the front port. Group 0 runs the paper's published reexpression pair;
// every further group (initial or replacement) runs freshly selected
// functions, so the pool is representation-diverse from the start.
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	if len(opts.Stack) > 0 {
		if err := reexpress.CheckStack(opts.Stack); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	f := &Fleet{
		opts:     opts,
		net:      simnet.New(0),
		audit:    &AuditLog{},
		nextPort: opts.BasePort,
		starting: make(map[int][]nvkernel.Eviction),
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	if opts.Obs != nil {
		// Thread the registry through every layer before the first
		// group starts. The mutated f.opts flow to replacements too via
		// specFor, so the whole fleet lifetime is instrumented.
		f.obs = newMetrics(opts.Obs, f)
		f.net.SetMetrics(simnet.NewMetrics(opts.Obs))
		kopts := make([]nvkernel.Option, len(opts.Kernel), len(opts.Kernel)+1)
		copy(kopts, opts.Kernel)
		f.opts.Kernel = append(kopts, nvkernel.WithMetrics(nvkernel.NewMetrics(opts.Obs)))
		f.opts.Server.Metrics = httpd.NewMetrics(opts.Obs)
	}
	if opts.Faults != nil {
		f.net.SetFaultInjector(opts.Faults)
	}
	f.pool.Store(new([]*group))
	for i := 0; i < opts.Groups; i++ {
		if _, err := f.spawn(); err != nil {
			_, _ = f.Stop()
			return nil, fmt.Errorf("fleet: start group %d: %w", i, err)
		}
	}
	front, err := f.net.Listen(frontPort)
	if err != nil {
		_, _ = f.Stop()
		return nil, fmt.Errorf("fleet: front listener: %w", err)
	}
	f.front = front
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// spawn starts one fresh group and registers it in the pool.
func (f *Fleet) spawn() (*group, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errClosed
	}
	id := f.nextID
	f.nextID++
	f.starting[id] = nil
	var port uint16
	if k := len(f.freePorts); k > 0 {
		// Recycle a quarantined group's port: its listener closed
		// before the group's exit was processed, so the slot is free
		// again and long-running fleets never walk off the end of the
		// port space.
		port = f.freePorts[k-1]
		f.freePorts = f.freePorts[:k-1]
	} else {
		port = f.nextPort
		if port < f.opts.BasePort {
			// nextPort wrapped the uint16 space and no quarantined port
			// is free to recycle: continuing would collide with the
			// front port or remap to the default. Fail the spawn; the
			// audit log records it.
			delete(f.starting, id)
			f.mu.Unlock()
			return nil, fmt.Errorf("fleet: group port space exhausted")
		}
		if span := f.opts.PortSpan; span > 0 && int(port)-int(f.opts.BasePort) >= int(span) {
			// The pool's slice of a shared port budget is spent. Live
			// ports never exceed the peak pool size (exited groups
			// recycle theirs), so this only fires when the pool really
			// holds PortSpan groups at once.
			delete(f.starting, id)
			f.mu.Unlock()
			return nil, fmt.Errorf("fleet: port budget [%d,%d) exhausted", f.opts.BasePort, int(f.opts.BasePort)+int(span))
		}
		f.nextPort++
	}
	// Drawn with the id, so specs follow spawn order; a draw takes
	// microseconds, and dispatch reads the lock-free pool snapshot.
	spec := f.specForGroup(id)
	f.mu.Unlock()

	// Build outside the pool lock: group startup takes real time, and
	// dispatch must keep flowing to the survivors meanwhile.
	h, err := harness.StartSpec(f.net, f.specFor(id, port, spec))
	if err != nil {
		f.mu.Lock()
		f.freePorts = append(f.freePorts, port)
		delete(f.starting, id)
		f.mu.Unlock()
		return nil, err
	}
	workers := f.opts.Workers
	if workers < 1 {
		workers = 1
	}
	g := &group{id: id, port: port, spec: spec, workers: workers, r1: spec.VariantName(1), handle: h, born: time.Now(), drained: make(chan struct{}, 1), drop: make(chan struct{})}

	f.mu.Lock()
	early := f.starting[id]
	delete(f.starting, id)
	if f.closed {
		f.mu.Unlock()
		_, _ = h.Stop()
		return nil, errClosed
	}
	f.groups = append(f.groups, g)
	f.publishLocked()
	f.spawned++
	entries := make([]AuditEntry, len(early))
	for i, ev := range early {
		entries[i] = f.evictLocked(g, ev)
	}
	f.mu.Unlock()
	for _, e := range entries {
		f.audit.append(e)
	}

	f.wg.Add(1)
	go f.watch(g)
	return g, nil
}

// watch waits for the group to terminate and runs recovery.
func (f *Fleet) watch(g *group) {
	defer f.wg.Done()
	<-g.handle.Done()
	f.groupExited(g)
}

// groupExited is the quarantine path: prune the group, account the
// alarm, spawn a replacement, and append the audit record. A clean
// exit during fleet shutdown is the one case that leaves no trace.
func (f *Fleet) groupExited(g *group) {
	res, err := g.handle.Result()
	alarmed := res != nil && res.Alarm != nil
	clean := err == nil && res != nil && res.Clean

	f.mu.Lock()
	stopping := f.closed
	// An alarm raised while the group was draining still counts as a
	// detection — the monitor's verdict outranks the administrative
	// retirement that happened to be in flight.
	mode := g.retire
	if alarmed {
		mode = retireNone
		f.detections++
		f.alarms.Add(1)
		if res.Alarm.Reason == nvkernel.ReasonQuorumLost {
			f.quorumKills.Add(1)
		}
		if f.obs != nil {
			f.obs.detections.Inc()
		}
	}
	if !stopping {
		// During shutdown the roster is frozen so the final Stats
		// report the pool as it stood; while serving, a dead group is
		// pruned immediately so the dispatcher stops picking it, and
		// its port — whose listener closed when the monitor tore the
		// group down — returns to the free list for the replacement.
		f.removeLocked(g)
		f.freePorts = append(f.freePorts, g.port)
		switch {
		case mode == retireRotate:
			f.rotated++
			if f.obs != nil {
				f.obs.rotations.Inc()
			}
		case mode == retireRespawn:
			f.respawned++
			if f.obs != nil {
				f.obs.respawns.Inc()
			}
		case alarmed || !clean:
			f.quarantined++
			if f.obs != nil {
				f.obs.quarantines.Inc()
			}
		}
		if f.obs != nil {
			// The group's whole life is how long one mask set was
			// exposed to attackers — the moving-target metric rotation
			// exists to shrink.
			f.obs.lifetime.Observe(time.Since(g.born))
		}
	}
	f.mu.Unlock()

	if stopping {
		if alarmed {
			// An attack raced fleet shutdown: still record it.
			entry := f.entryFor(g, "quarantine (fleet stopping)")
			entry.Alarm = res.Alarm
			entry.VTime = res.VTime
			f.audit.append(entry)
		}
		return
	}

	act := "quarantine"
	entry := f.entryFor(g, act)
	if res != nil {
		entry.VTime = res.VTime
	}
	switch {
	case alarmed:
		entry.Alarm = res.Alarm
	case mode == retireRotate:
		act = "rotate"
		entry.Action = act
		entry.Detail = "proactive rotation (drained)"
	case mode == retireRespawn:
		act = "respawn"
		entry.Action = act
		entry.Detail = "degraded group respawned at full width (drained)"
	case clean:
		// A group only exits cleanly in service when its port was
		// closed under it (ShutdownGroup): not an attack, but the slot
		// still needs refilling.
		act = "departed"
		entry.Action = act
		entry.Detail = "clean exit"
	case err != nil:
		entry.Detail = err.Error()
	default:
		entry.Detail = "group exited without result"
	}

	repl, spawnErr := f.spawn()
	switch {
	case spawnErr == nil:
		if f.obs != nil {
			f.obs.replacements.Inc()
			if alarmed {
				// Exposure window: the attack was detected at Alarm.At;
				// the slot is healthy again now that the replacement is
				// registered.
				f.obs.exposure.Observe(time.Since(res.Alarm.At))
			}
		}
		entry.Action = act + "+replace"
		entry.ReplacementID = repl.id
		entry.ReplacementR1 = repl.r1
	case errors.Is(spawnErr, errClosed):
		// Shutdown won the race; the bare record is right.
	default:
		entry.Detail = joinDetail(entry.Detail, "replacement failed: "+spawnErr.Error())
	}
	f.audit.append(entry)
	if spawnErr == nil {
		// Counted last, after the audit record: a caller that awaits
		// Replaced sees the replacement registered and audited.
		f.mu.Lock()
		f.replaced++
		f.mu.Unlock()
	}
}

// entryFor builds the base audit record for a departed group; callers
// fill Alarm/Detail.
func (f *Fleet) entryFor(g *group, action string) AuditEntry {
	return AuditEntry{
		GroupID:       g.id,
		Port:          g.port,
		Config:        harness.Config4UIDVariation,
		Variants:      g.spec.N(),
		R1:            g.r1,
		Action:        action,
		ReplacementID: -1,
	}
}

func joinDetail(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// removeLocked prunes g from the healthy pool. Caller holds f.mu.
func (f *Fleet) removeLocked(g *group) {
	for i, cur := range f.groups {
		if cur == g {
			f.groups = append(f.groups[:i], f.groups[i+1:]...)
			f.publishLocked()
			return
		}
	}
}

// publishLocked republishes the dispatcher's snapshot of the healthy
// pool, excluding draining groups (they finish their in-flight
// connections but take no new ones). Caller holds f.mu. The stored
// slice is a fresh copy and never mutated afterwards, so pick() may
// read it without synchronization.
func (f *Fleet) publishLocked() {
	snap := make([]*group, 0, len(f.groups))
	for _, g := range f.groups {
		if g.retire == retireNone {
			snap = append(snap, g)
		}
	}
	f.pool.Store(&snap)
}

// isClosed reports whether Stop has begun.
func (f *Fleet) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Net returns the shared network clients dial.
func (f *Fleet) Net() *simnet.Network { return f.net }

// Port returns the dispatcher's client-facing port.
func (f *Fleet) Port() uint16 { return frontPort }

// Client returns an HTTP client aimed at the dispatcher.
func (f *Fleet) Client() *httpd.Client { return httpd.NewClient(f.net, frontPort) }

// Audit returns the fleet's append-only recovery log.
func (f *Fleet) Audit() *AuditLog { return f.audit }

// Stats snapshots fleet health and dispatch counters.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Spawned:        f.spawned,
		Detections:     f.detections,
		Quarantined:    f.quarantined,
		Replaced:       f.replaced,
		Rotated:        f.rotated,
		Evictions:      f.evictions,
		Respawned:      f.respawned,
		Dispatched:     f.dispatched.Load(),
		DispatchErrors: f.dispatchErrors.Load(),
	}
	for _, g := range f.groups {
		if g.degraded.Load() {
			// Degraded groups (draining toward respawn included) still
			// serve on their quorum; the count is the availability
			// exposure the mesh aggregates.
			s.DegradedGroups++
		}
		if g.retire != retireNone {
			// Draining groups are still finishing in-flight work but no
			// longer count toward serving capacity.
			continue
		}
		s.Healthy = append(s.Healthy, GroupStat{
			ID:       g.id,
			Port:     g.port,
			Variants: g.spec.N(),
			Workers:  g.workers,
			Stack:    g.spec.StackString(),
			R1:       g.r1,
			Inflight: g.inflight.Load(),
			Served:   g.served.Load(),
		})
	}
	return s
}

// ShutdownGroup closes the listening port of the healthy group with
// the given id, as a crashing machine would: the group exits, its
// watcher prunes and replaces it, and in-flight connections drop. It
// returns false when no healthy group has that id. This is the chaos
// campaign's group-restart-under-load fault (the paper's launcher
// killing a process group, aimed at one pool member).
func (f *Fleet) ShutdownGroup(id int) bool {
	f.mu.Lock()
	var victim *group
	for _, g := range f.groups {
		if g.id == id {
			victim = g
			break
		}
	}
	f.mu.Unlock()
	if victim == nil {
		return false
	}
	return f.net.ShutdownPort(victim.port) == nil
}

// OldestGroupID returns the id of the longest-lived healthy group, or
// -1 for an empty pool — the deterministic restart victim chaos plans
// use (ids are never reused, so the minimum id is the oldest group).
func (f *Fleet) OldestGroupID() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldest := -1
	for _, g := range f.groups {
		if g.retire == retireNone && (oldest == -1 || g.id < oldest) {
			oldest = g.id
		}
	}
	return oldest
}

// LiveGroups enumerates the live pool members in spawn order (ids are
// never reused, so ascending id is oldest-first) with their ages and
// load — the roster a rotation scheduler picks victims from. Draining
// groups are included, flagged, so callers can see retirements in
// flight.
func (f *Fleet) LiveGroups() []GroupInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	out := make([]GroupInfo, 0, len(f.groups))
	for _, g := range f.groups {
		out = append(out, GroupInfo{
			ID:       g.id,
			Port:     g.port,
			Born:     g.born,
			Age:      now.Sub(g.born),
			Inflight: g.inflight.Load(),
			Served:   g.served.Load(),
			Draining: g.retire != retireNone,
		})
	}
	return out
}

// HealthyCount returns the number of groups currently in the dispatch
// pool (live minus draining). Lock-free: it reads the published
// snapshot, so rotation schedulers may call it on hot paths.
func (f *Fleet) HealthyCount() int { return len(*f.pool.Load()) }

// DegradedCount returns the number of dispatch-pool groups currently
// serving on a K-of-N quorum (evicted variant, respawn pending).
// Lock-free like HealthyCount, so availability gauges may sample it.
func (f *Fleet) DegradedCount() int {
	n := 0
	for _, g := range *f.pool.Load() {
		if g.degraded.Load() {
			n++
		}
	}
	return n
}

// AlarmCount returns how many monitor alarms the fleet has quarantined
// on so far. Lock-free, so dispatch paths may snapshot it around a
// request to attribute a transport error to a quarantine window.
func (f *Fleet) AlarmCount() uint64 { return f.alarms.Load() }

// QuorumLostCount returns how many of those alarms were quorum-lost
// kills (a faulted variant's eviction would have dropped the group
// below K). Lock-free like AlarmCount.
func (f *Fleet) QuorumLostCount() uint64 { return f.quorumKills.Load() }

// Rotate drains the healthy group with the given id and replaces it
// with a freshly generated spec — proactive moving-target rotation, in
// contrast to ShutdownGroup's crash semantics. The group is removed
// from the dispatch snapshot immediately (no new connections), its
// in-flight connections are given drainFor to finish, and then its
// listener is closed; the watcher spawns the replacement and records a
// "rotate+replace" audit entry. An error means no live non-draining
// group had that id.
func (f *Fleet) Rotate(id int, drainFor time.Duration) error {
	return f.retire(id, retireRotate, drainFor)
}

// respawnDrain bounds how long a degraded group's in-flight
// connections get to finish before the respawn closes its listener.
const respawnDrain = 2 * time.Second

// variantEvicted is the kernel's per-group eviction hook (threaded via
// WithEvictionHook in specFor): group id lost a variant to a fault but
// survived on its quorum. The fleet appends an "evict" audit entry,
// marks the group degraded (the availability accounting mesh pools
// aggregate), and — on the group's first eviction — schedules a
// background respawn: the degraded group is drained and replaced by a
// fresh full-width group with newly selected reexpression functions,
// reusing the moving-target rotate machinery. An evicted slot never
// rejoins its old group; the whole group is re-expressed.
//
// Called from a kernel lane goroutine with no kernel locks held, so
// the retire (which waits out the drain) must run in the background:
// the group keeps serving the surviving quorum meanwhile.
func (f *Fleet) variantEvicted(id int, ev nvkernel.Eviction) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	var g *group
	for _, cur := range f.groups {
		if cur.id == id {
			g = cur
			break
		}
	}
	if g == nil {
		// Either spawn has not registered the group yet (a fault during
		// its readiness probe), and registration replays the eviction,
		// or the group already left the roster (quarantine racing the
		// eviction) and there is nothing to degrade.
		if early, ok := f.starting[id]; ok {
			f.starting[id] = append(early, ev)
		}
		f.mu.Unlock()
		return
	}
	entry := f.evictLocked(g, ev)
	f.mu.Unlock()
	f.audit.append(entry)
}

// evictLocked counts one eviction from g, marks it degraded and, on its
// first eviction, starts the background drain and respawn. It returns
// the audit entry for the caller to append once mu is released.
func (f *Fleet) evictLocked(g *group, ev nvkernel.Eviction) AuditEntry {
	f.evictions++
	first := !g.degraded.Swap(true)
	entry := f.entryFor(g, "evict")
	entry.VTime = ev.VTime
	entry.Detail = fmt.Sprintf("variant %d evicted (%s, worker %d): %d live; %s",
		ev.Variant, ev.Kind, ev.Worker, ev.Live, ev.Detail)
	if first {
		// wg.Add under mu, ordered against Stop's closed=true: either
		// this respawn is tracked before Stop waits, or closed was seen
		// above and no goroutine starts.
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			// Already-draining and shutdown races surface as errors here;
			// both mean someone else is tearing the group down.
			_ = f.retire(g.id, retireRespawn, respawnDrain)
		}()
	}
	return entry
}

// retire marks the group as draining, waits (bounded) for its
// in-flight connections to finish, and closes its listener. The exit
// is then processed by the group's watcher like any other, with the
// retire mode steering accounting and replacement.
func (f *Fleet) retire(id int, mode retireMode, drainFor time.Duration) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errClosed
	}
	var victim *group
	for _, g := range f.groups {
		if g.id == id {
			victim = g
			break
		}
	}
	if victim == nil || victim.retire != retireNone {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no live non-draining group %d to retire", id)
	}
	victim.retire = mode
	f.publishLocked()
	f.mu.Unlock()

	// Drain: the snapshot no longer offers the group, and a dispatcher
	// still holding an older snapshot backs off once it sees the flag,
	// so after the flag is set inflight only falls. A connection that
	// outlives the budget is closed — rotation must never wedge behind
	// one slow or silent client.
	victim.draining.Store(true)
	if victim.inflight.Load() > 0 {
		timer := time.NewTimer(drainFor)
		select {
		case <-victim.drained:
		case <-timer.C:
			victim.dropConns()
		}
		timer.Stop()
	}
	return f.net.ShutdownPort(victim.port)
}

// Await polls Stats until cond holds or timeout elapses. Recovery is
// asynchronous — a detection is counted before its replacement group
// registers — so callers that need a settled pool (e.g. before Stop)
// wait on the counters explicitly.
func (f *Fleet) Await(cond func(Stats) bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s := f.Stats()
		if cond(s) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: condition not met within %v: %+v", timeout, s)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// AwaitReplenished waits until at least replaced replacements have
// registered and the healthy pool is back to size groups.
func (f *Fleet) AwaitReplenished(replaced, groups int, timeout time.Duration) error {
	return f.Await(func(s Stats) bool {
		return s.Replaced >= replaced && len(s.Healthy) >= groups
	}, timeout)
}

// Stop shuts the dispatcher and every group down, waits for all fleet
// goroutines, and returns the final stats. Groups that die with an
// alarm during shutdown are still counted and audited.
func (f *Fleet) Stop() (Stats, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return f.Stats(), errClosed
	}
	f.closed = true
	groups := append([]*group(nil), f.groups...)
	f.mu.Unlock()

	if f.front != nil {
		// Close also drops connections still queued in the backlog, so
		// no client is left blocking in Recv.
		_ = f.front.Close()
	}
	var firstErr error
	for _, g := range groups {
		// A lane blocked reading a silent client would keep the group
		// alive past its listener's close.
		g.dropConns()
		if _, err := g.handle.Stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.wg.Wait()
	return f.Stats(), firstErr
}
