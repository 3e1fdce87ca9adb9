package fleet

import (
	"fmt"
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
	// spec is the group's DiversitySpec (nil for single-variant
	// configurations, which deploy no variation stack).
	spec *reexpress.Spec
	// variants is the group's process-group size N.
	variants int
	// workers is the group's prefork worker-lane count (≥ 1): its
	// concurrent-request capacity.
	workers int
	// r1 names the variant-1 effective UID reexpression function
	// actually deployed ("(none)" for single-variant configurations) —
	// the stat the two-variant audit trail always recorded.
	r1 string
	// handle controls the running process group.
	handle *harness.Handle
	// born is the group's spawn time, for the group-age gauge.
	born time.Time
	// retire marks an administratively draining group (guarded by the
	// fleet mutex): retireRotate exits are replaced with a fresh spec,
	// retireShrink exits are not. Draining groups are filtered from the
	// dispatch snapshot, so no new connection reaches them.
	retire retireMode
	// degraded is set when the group's kernel evicts a variant (quorum
	// degraded mode): the group keeps serving on its K-of-N quorum
	// while the fleet respawns it in the background. Atomic because the
	// kernel's eviction hook fires from lane monitor goroutines.
	degraded atomic.Bool
	// inflight counts connections currently proxied to the group.
	inflight atomic.Int64
	// served counts connections ever dispatched to the group.
	served atomic.Int64
}

// retireMode classifies an administrative drain of a healthy group.
type retireMode int

const (
	// retireNone: the group is serving normally.
	retireNone retireMode = iota
	// retireRotate: moving-target rotation — drain, then replace with a
	// freshly generated spec.
	retireRotate
	// retireShrink: elastic downsizing — drain, no replacement.
	retireShrink
	// retireRespawn: a quorum-degraded group is drained and replaced at
	// full width with a freshly generated spec (the evicted variant's
	// slot comes back re-expressed, never resurrected in place).
	retireRespawn
)

// defaultStack is the variation stack generated for Config4 groups
// when Options.Stack is empty: the paper's full §4 deployment.
var defaultStack = []reexpress.LayerKind{
	reexpress.LayerUID,
	reexpress.LayerAddressPartition,
	reexpress.LayerUnsharedFiles,
}

// specForGroup selects the DiversitySpec a fresh group deploys, or nil
// for configurations without a variation stack.
func (f *Fleet) specForGroup(id int) *reexpress.Spec {
	switch f.opts.Config {
	case harness.Config4UIDVariation:
		f.rngMu.Lock()
		defer f.rngMu.Unlock()
		n := f.opts.Variants
		if id == 0 && n == 2 && len(f.opts.Stack) == 0 {
			// Group 0 runs the paper's published functions; every
			// further group (initial or replacement) runs freshly
			// generated ones, so the pool is representation-diverse
			// from the start.
			return reexpress.FullStack(reexpress.UIDVariation().Pair.Funcs())
		}
		stack := f.opts.Stack
		if len(stack) == 0 {
			stack = defaultStack
		}
		return reexpress.GenerateFrom(f.rng, n, stack...)
	case harness.Config3AddressSpace:
		n := f.opts.Variants
		return reexpress.UncheckedSpec(n,
			reexpress.AddressPartitionLayer(n),
			reexpress.UnsharedFilesLayer(reexpress.DefaultUnsharedPaths...),
		)
	default:
		// Single-variant configurations deploy no stack.
		return nil
	}
}

// specFor builds the restartable group description for a pool slot.
// Quorum fleets get a per-group kernel option slice: the eviction hook
// closes over the group id, and appending it onto the shared
// f.opts.Kernel would race sibling spawns.
func (f *Fleet) specFor(id int, port uint16, spec *reexpress.Spec) harness.GroupSpec {
	gs := harness.GroupSpec{
		Config:    f.opts.Config,
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
	return fmt.Sprintf("group %d (port %d, n=%d, w=%d, R1=%s)", g.id, g.port, g.variants, g.workers, g.r1)
}
