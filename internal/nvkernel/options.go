package nvkernel

import (
	"fmt"
	"time"

	"nvariant/internal/reexpress"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
)

// FaultHook is the kernel's chaos attachment point: when installed, it
// is consulted by every variant's syscall invoker *before* the call
// enters the rendezvous. Implementations must be safe for concurrent
// use (every variant of every worker lane calls from its own
// goroutine); the chaos package provides seeded deterministic ones.
//
// The disabled hook costs one nil check per syscall — nothing else on
// the hot path.
type FaultHook interface {
	// PreSyscall reports the fault for this submission: stall > 0
	// delays the variant's arrival at the rendezvous by that long (a
	// slow-syscall / lane-stall fault — transparent while it stays
	// under the rendezvous Timeout), and crash kills the variant
	// without reaching the rendezvous (the crash-and-drain fault: the
	// monitor sees the variant die and raises a variant-fault alarm if
	// siblings are healthy).
	PreSyscall(worker, variant int, num sys.Num) (stall time.Duration, crash bool)
}

// Config collects the kernel configuration for one N-variant process
// group. Construct via options passed to Run. WithSpec is the primary
// configuration path: it materializes a DiversitySpec's variation
// stack onto the fields below (which remain settable individually for
// ablations and baselines).
type Config struct {
	// UIDFuncs holds each variant's UID reexpression function. Length
	// must equal the number of variants; defaults to identity for all.
	UIDFuncs []reexpress.Func
	// AddressPartition places variant i's simulated address space in
	// slot i of the 2^⌈log₂N⌉-way split (the paper's low/high halves
	// when N = 2).
	AddressPartition bool
	// Unshared is the set of paths with per-variant file versions
	// ("/etc/passwd" is served as "/etc/passwd-0" / "/etc/passwd-1").
	Unshared map[string]bool
	// Timeout bounds how long the monitor waits for all variants to
	// reach a rendezvous before raising a timeout alarm.
	Timeout time.Duration
	// Cred is the initial (real) credential set of the process group.
	Cred vos.Cred
	// Spec records the DiversitySpec the group was configured from
	// (nil when configured through individual options only).
	Spec *reexpress.Spec
	// Faults is the optional chaos fault hook (nil = no injection).
	Faults FaultHook
	// Metrics is the optional kernel metric set (nil = uninstrumented;
	// the disabled path costs one nil check per rendezvous).
	Metrics *Metrics
	// Quorum, when K ≥ 1, generalizes the rendezvous from unanimous to
	// K-of-N: a variant *fault* (crash, deadline stall) with at least K
	// other live variants evicts the faulted variant and the group
	// continues in degraded mode on the survivors, while divergence
	// among live variants still raises the usual alarms. A fault that
	// would drop the live set below K kills the group (quorum-lost). 0
	// (the default) keeps the paper's unanimous contract: any variant
	// fault kills the group.
	Quorum int
	// OnEvict, when set, is called once per quorum eviction after the
	// variant has been dropped from every lane's live set — the fleet's
	// hook for audit entries and background respawn. Called from the
	// goroutine that observed the fault (a variant's or the lane's stall
	// watchdog) with no kernel locks held, while that lane cannot
	// retire; implementations must be safe for concurrent use across
	// lanes.
	OnEvict func(Eviction)
}

// Option configures Run.
type Option func(*Config)

// defaultConfig returns the baseline configuration for n variants.
func defaultConfig(n int) Config {
	funcs := make([]reexpress.Func, n)
	for i := range funcs {
		funcs[i] = reexpress.Identity{}
	}
	return Config{
		UIDFuncs: funcs,
		Unshared: make(map[string]bool),
		Timeout:  30 * time.Second,
		Cred:     vos.CredFor(vos.Root, 0),
	}
}

// WithSpec configures the group from a DiversitySpec, materializing
// each layer of its variation stack: the UID layer's per-variant
// functions, address partitioning, and unshared files.
// Layers absent from the stack leave the corresponding fields
// untouched, so a spec composes with individually-set options.
func WithSpec(s *reexpress.Spec) Option {
	return func(c *Config) {
		c.Spec = s
		if funcs := s.FuncsFor(reexpress.LayerUID); funcs != nil {
			c.UIDFuncs = funcs
		}
		if s.HasLayer(reexpress.LayerAddressPartition) {
			c.AddressPartition = true
		}
		for _, p := range s.UnsharedPaths() {
			c.Unshared[p] = true
		}
	}
}

// WithAddressPartition runs variants in disjoint simulated address
// partitions (Figure 1).
func WithAddressPartition() Option {
	return func(c *Config) { c.AddressPartition = true }
}

// WithUnsharedFiles marks paths as unshared: each variant opens its
// own "-<variant>" suffixed version (§3.4).
func WithUnsharedFiles(paths ...string) Option {
	return func(c *Config) {
		for _, p := range paths {
			c.Unshared[p] = true
		}
	}
}

// WithTimeout sets the rendezvous timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Config) { c.Timeout = d }
}

// WithQuorum enables K-of-N degraded mode: a variant fault with at
// least k live agreeing survivors evicts the faulted variant instead
// of killing the group. k ≤ 0 disables (unanimous, the default).
func WithQuorum(k int) Option {
	return func(c *Config) { c.Quorum = k }
}

// WithEvictionHook installs the per-eviction callback (see
// Config.OnEvict). Only meaningful together with WithQuorum.
func WithEvictionHook(fn func(Eviction)) Option {
	return func(c *Config) { c.OnEvict = fn }
}

// WithFaultHook installs a chaos fault hook on the group: per-variant
// stalls, slow syscalls, and crash-and-drain faults injected at the
// syscall boundary.
func WithFaultHook(h FaultHook) Option {
	return func(c *Config) { c.Faults = h }
}

// WithMetrics attaches a kernel metric set (see NewMetrics) to the
// group: per-rendezvous latency, syscall counts, and alarm latency.
func WithMetrics(m *Metrics) Option {
	return func(c *Config) { c.Metrics = m }
}

// UnsharedPath returns the per-variant path for an unshared file.
func UnsharedPath(path string, variant int) string {
	return fmt.Sprintf("%s-%d", path, variant)
}

// SetupUnsharedPasswd writes the diversified /etc/passwd-<i> and
// /etc/group-<i> files for each variant: identical to the canonical
// database except every UID and GID is transformed with the variant's
// reexpression function (§3.4). This is done by the trusted variant
// builder, never by the running server — embedding the reexpression
// function in the server would give attackers a reusable oracle (§5).
func SetupUnsharedPasswd(world *vos.World, funcs []reexpress.Func) error {
	root := vos.CredFor(vos.Root, 0)
	for i, f := range funcs {
		users := make([]vos.User, len(world.Users))
		for j, u := range world.Users {
			uid, err := f.Apply(u.UID)
			if err != nil {
				return fmt.Errorf("reexpress uid %s for variant %d: %w", u.UID.Decimal(), i, err)
			}
			gid, err := f.Apply(u.GID)
			if err != nil {
				return fmt.Errorf("reexpress gid %s for variant %d: %w", u.GID.Decimal(), i, err)
			}
			users[j] = u
			users[j].UID = uid
			users[j].GID = gid
		}
		groups := make([]vos.Group, len(world.Groups))
		for j, g := range world.Groups {
			gid, err := f.Apply(g.GID)
			if err != nil {
				return fmt.Errorf("reexpress gid %s for variant %d: %w", g.GID.Decimal(), i, err)
			}
			groups[j] = g
			groups[j].GID = gid
		}
		if err := world.FS.WriteFile(UnsharedPath("/etc/passwd", i), vos.FormatPasswd(users), 0644, root); err != nil {
			return fmt.Errorf("write variant %d passwd: %w", i, err)
		}
		if err := world.FS.WriteFile(UnsharedPath("/etc/group", i), vos.FormatGroup(groups), 0644, root); err != nil {
			return fmt.Errorf("write variant %d group: %w", i, err)
		}
	}
	return nil
}
