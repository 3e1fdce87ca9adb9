package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
)

// group is one pool member: a running N-variant process group plus the
// bookkeeping the dispatcher's balancing policies read.
type group struct {
	// id is the fleet-unique group number (never reused, so the audit
	// log can refer to dead groups unambiguously).
	id int
	// port is the group's private listening port on the shared network.
	// Ports of quarantined groups are recycled by later replacements.
	port uint16
	// spec is the group's DiversitySpec; its width is the group's
	// process-group size N.
	spec *reexpress.Spec
	// workers is the group's prefork worker-lane count (≥ 1): its
	// concurrent-request capacity.
	workers int
	// r1 names the variant-1 effective UID reexpression function
	// actually deployed — the stat the two-variant audit trail always
	// recorded.
	r1 string
	// handle controls the running process group.
	handle *harness.Handle
	// born is the group's spawn time, for the group-age gauge.
	born time.Time
	// retire marks an administratively draining group (guarded by the
	// fleet mutex); its exit is replaced with a fresh spec. Draining
	// groups are filtered from the dispatch snapshot, so no new
	// connection reaches them.
	retire retireMode
	// degraded is set when the group's kernel evicts a variant (quorum
	// degraded mode): the group keeps serving on its K-of-N quorum
	// while the fleet respawns it in the background. Atomic because the
	// kernel's eviction hook fires from the lanes' goroutines.
	degraded atomic.Bool
	// inflight counts connections currently handed to the group (and
	// handoffs about to be tried: the dispatcher counts first).
	inflight atomic.Int64
	// served counts connections ever dispatched to the group.
	served atomic.Int64
	// draining is set by retire before it reads inflight; a dispatcher
	// re-checks it after counting a connection, so a handoff never
	// lands behind a drain that has already read zero.
	draining atomic.Bool
	// drained receives a token when the last in-flight connection of a
	// draining group is released: retire waits on it instead of
	// polling inflight.
	drained chan struct{}
	// drop is closed (once, by dropConns) when the group's in-flight
	// connections must end: retire's drain budget expired, or the fleet
	// is stopping. serve ends the group's input on each of them, so a
	// client that never sends cannot keep the group alive.
	drop     chan struct{}
	dropOnce sync.Once
}

// dropConns ends every connection still handed to the group.
func (g *group) dropConns() { g.dropOnce.Do(func() { close(g.drop) }) }

// release uncounts one in-flight connection and, when that empties a
// draining group, wakes its drain. Only one retire ever drains a
// group, and once the flag is set no counted connection proceeds to a
// handoff, so a token means the group really is empty; a second token
// finds the buffer full and is dropped.
func (g *group) release() {
	if g.inflight.Add(-1) == 0 && g.draining.Load() {
		select {
		case g.drained <- struct{}{}:
		default:
		}
	}
}

// retireMode classifies an administrative drain of a healthy group.
type retireMode int

const (
	// retireNone: the group is serving normally.
	retireNone retireMode = iota
	// retireRotate: moving-target rotation — drain, then replace with a
	// freshly generated spec.
	retireRotate
	// retireRespawn: a quorum-degraded group is drained and replaced at
	// full width with a freshly generated spec (the evicted variant's
	// slot comes back re-expressed, never resurrected in place).
	retireRespawn
)

// defaultStack is the variation stack generated for each group when
// Options.Stack is empty: the paper's full §4 deployment.
var defaultStack = []reexpress.LayerKind{
	reexpress.LayerUID,
	reexpress.LayerAddressPartition,
	reexpress.LayerUnsharedFiles,
}

// specForGroup selects the DiversitySpec a fresh group deploys.
// Caller holds f.mu.
func (f *Fleet) specForGroup(id int) *reexpress.Spec {
	n := f.opts.Variants
	if id == 0 && n == 2 && len(f.opts.Stack) == 0 {
		// Group 0 runs the paper's published functions; every further
		// group (initial or replacement) runs freshly generated ones,
		// so the pool is representation-diverse from the start.
		return reexpress.FullStack(reexpress.UIDVariation().Pair.Funcs())
	}
	stack := f.opts.Stack
	if len(stack) == 0 {
		stack = defaultStack
	}
	return reexpress.GenerateFrom(f.rng, n, stack...)
}

// specFor builds the restartable group description for a pool slot.
// Quorum fleets get a per-group kernel option slice: the eviction hook
// closes over the group id, and appending it onto the shared
// f.opts.Kernel would race sibling spawns.
func (f *Fleet) specFor(id int, port uint16, spec *reexpress.Spec) harness.GroupSpec {
	gs := harness.GroupSpec{
		Config:    harness.Config4UIDVariation,
		Server:    f.opts.Server,
		Port:      port,
		Diversity: spec,
		Workers:   f.opts.Workers,
		Kernel:    f.opts.Kernel,
		Quorum:    f.opts.Quorum,
	}
	if f.opts.Quorum > 0 {
		kopts := make([]nvkernel.Option, len(f.opts.Kernel), len(f.opts.Kernel)+1)
		copy(kopts, f.opts.Kernel)
		gs.Kernel = append(kopts, nvkernel.WithEvictionHook(func(ev nvkernel.Eviction) {
			f.variantEvicted(id, ev)
		}))
	}
	return gs
}

// String identifies the group in logs.
func (g *group) String() string {
	return fmt.Sprintf("group %d (port %d, n=%d, w=%d, R1=%s)", g.id, g.port, g.spec.N(), g.workers, g.r1)
}
