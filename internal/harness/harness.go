// Package harness launches the httpd case study in the four
// configurations of Table 3 and manages server lifecycle for tests,
// experiments and benchmarks:
//
//	Configuration 1 — unmodified httpd on the (monitoring-capable)
//	                  kernel, single process
//	Configuration 2 — UID-transformed httpd, single process
//	Configuration 3 — 2-variant system with address-space partitioning
//	                  and unshared-file support (the 2-variant baseline)
//	Configuration 4 — 2-variant system running the UID data variation
//	                  (on top of the configuration 3 baseline)
package harness

import (
	"fmt"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
)

// Configuration selects one of the paper's four Table 3 setups.
type Configuration int

// The four configurations of Table 3.
const (
	Config1Unmodified Configuration = iota + 1
	Config2Transformed
	Config3AddressSpace
	Config4UIDVariation
)

// String names the configuration as in Table 3.
func (c Configuration) String() string {
	switch c {
	case Config1Unmodified:
		return "Unmodified Apache"
	case Config2Transformed:
		return "Transformed Apache"
	case Config3AddressSpace:
		return "2-Variant Address Space"
	case Config4UIDVariation:
		return "2-Variant UID"
	default:
		return "unknown"
	}
}

// Variants returns the default process-group size of the
// configuration (a GroupSpec's DiversitySpec can widen the N-variant
// configurations).
func (c Configuration) Variants() int {
	if c == Config3AddressSpace || c == Config4UIDVariation {
		return 2
	}
	return 1
}

// GroupSpec fully describes one server group so it can be rebuilt from
// scratch — the unit a fleet restarts after quarantining a compromised
// group.
type GroupSpec struct {
	// Config selects the Table 3 configuration.
	Config Configuration
	// Server configures the httpd program (identical across variants).
	Server httpd.Options
	// Port is the listening port (0 means httpd.DefaultPort). Distinct
	// groups on a shared network need distinct ports.
	Port uint16
	// Diversity is the group's DiversitySpec: N variants with a stack
	// of variation layers. Nil selects the configuration's default
	// stack (the paper's two-variant deployment). Fleet replacements
	// use this to come back with freshly generated specs — possibly
	// differing in N and stack, not just masks.
	Diversity *reexpress.Spec
	// Workers is the per-group prefork worker-lane count; when > 0 it
	// overrides Server.Workers, so fleets can widen every spawned
	// group without touching the server options. The group then serves
	// Workers connections concurrently (any alarm in any lane still
	// kills the whole group).
	Workers int
	// Kernel holds extra kernel options applied to every (re)build of
	// the group — the chaos campaign threads its fault hooks through
	// here, so a fleet's replacement groups inherit the same fault
	// plan as the group they replace.
	Kernel []nvkernel.Option
	// Quorum, when K ≥ 1, runs the group's rendezvous in K-of-N mode:
	// variant faults with ≥ K live survivors evict the faulted variant
	// instead of killing the group (see nvkernel.WithQuorum). 0 keeps
	// the unanimous contract.
	Quorum int
}

// port returns the effective listening port.
func (s GroupSpec) port() uint16 {
	if s.Port == 0 {
		return httpd.DefaultPort
	}
	return s.Port
}

// diversity returns the effective DiversitySpec: the explicit one, or
// the configuration's default stack. Single-variant configurations
// have none.
func (s GroupSpec) diversity() *reexpress.Spec {
	if s.Diversity != nil {
		return s.Diversity
	}
	switch s.Config {
	case Config3AddressSpace:
		// The 2-variant baseline: disjoint address spaces and unshared
		// (identity-content) system databases, no data reexpression.
		return reexpress.UncheckedSpec(2,
			reexpress.AddressPartitionLayer(2),
			reexpress.UnsharedFilesLayer(reexpress.DefaultUnsharedPaths...),
		)
	case Config4UIDVariation:
		return reexpress.FullStack(reexpress.UIDVariation().Pair.Funcs())
	}
	return nil
}

// buildSpec prepares the world for a group spec and returns the variant
// programs plus kernel options (the configuration's own options
// followed by the spec's quorum and extra Kernel options).
func buildSpec(world *vos.World, spec GroupSpec) ([]sys.Program, []nvkernel.Option, error) {
	if err := httpd.SetupWorldAt(world, spec.port()); err != nil {
		return nil, nil, err
	}
	serverOpts := spec.Server
	if spec.Workers > 0 {
		serverOpts.Workers = spec.Workers
	}
	var (
		progs []sys.Program
		kopts []nvkernel.Option
	)
	switch spec.Config {
	case Config1Unmodified:
		progs = []sys.Program{httpd.New(serverOpts, httpd.Consts{Root: vos.Root})}

	case Config2Transformed:
		o := serverOpts
		o.Transformed = true
		progs = []sys.Program{httpd.New(o, httpd.Consts{Root: vos.Root})}

	case Config3AddressSpace:
		// Untransformed program, N variants in disjoint address slots,
		// kernel configured for unshared files (identity contents) —
		// the paper's baseline for added-variation cost. The programs
		// carry untransformed constants, so a UID layer would violate
		// normal equivalence here.
		d := spec.diversity()
		if d.HasLayer(reexpress.LayerUID) {
			return nil, nil, fmt.Errorf("harness: configuration 3 runs untransformed variants; a UID layer needs configuration 4")
		}
		n := d.N()
		if d.HasLayer(reexpress.LayerUnsharedFiles) {
			idFuncs := make([]reexpress.Func, n)
			for i := range idFuncs {
				idFuncs[i] = reexpress.Identity{}
			}
			if err := nvkernel.SetupUnsharedPasswd(world, idFuncs); err != nil {
				return nil, nil, err
			}
		}
		progs = make([]sys.Program, n)
		for i := range progs {
			progs[i] = httpd.New(serverOpts, httpd.Consts{Root: vos.Root})
		}
		kopts = []nvkernel.Option{nvkernel.WithSpec(d)}

	case Config4UIDVariation:
		// The full system: every layer of the group's DiversitySpec is
		// materialized — variant programs are built with the spec's
		// UID functions, the diversified passwd/group files are
		// written for every variant, and the kernel is configured from
		// the same spec.
		d := spec.diversity()
		if d.HasLayer(reexpress.LayerUID) && !d.HasLayer(reexpress.LayerUnsharedFiles) {
			// Reexpressed UID constants with shared system databases
			// would alarm on the first benign passwd lookup.
			return nil, nil, fmt.Errorf("harness: a UID layer requires the unshared-files layer (normal equivalence, §3.4)")
		}
		funcs := d.UIDFuncs()
		if d.HasLayer(reexpress.LayerUnsharedFiles) {
			if err := nvkernel.SetupUnsharedPasswd(world, funcs); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if progs, err = httpd.BuildFromSpec(serverOpts, d); err != nil {
			return nil, nil, err
		}
		kopts = []nvkernel.Option{nvkernel.WithSpec(d)}

	default:
		return nil, nil, fmt.Errorf("harness: unknown configuration %d", spec.Config)
	}
	if spec.Quorum > 0 {
		kopts = append(kopts, nvkernel.WithQuorum(spec.Quorum))
	}
	return progs, append(kopts, spec.Kernel...), nil
}

// Handle controls a running server group.
type Handle struct {
	// World is the machine the server runs on.
	World *vos.World
	// Net is the network clients dial.
	Net *simnet.Network
	// Port is the server's listening port.
	Port uint16

	done chan struct{}
	res  *nvkernel.Result
	err  error
}

// Start launches the given configuration on a fresh world. The server
// runs until Stop (or until an alarm kills it).
func Start(c Configuration, serverOpts httpd.Options, latency time.Duration, kopts ...nvkernel.Option) (*Handle, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	return StartSpecOn(world, simnet.New(latency), GroupSpec{Config: c, Server: serverOpts}, kopts...)
}

// StartSpec launches a group spec on a fresh world over an existing
// network — the fleet's way of (re)building a group.
func StartSpec(net *simnet.Network, spec GroupSpec, extra ...nvkernel.Option) (*Handle, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	return StartSpecOn(world, net, spec, extra...)
}

// StartSpecOn launches a group spec on an existing world and network.
func StartSpecOn(world *vos.World, net *simnet.Network, spec GroupSpec, extra ...nvkernel.Option) (*Handle, error) {
	progs, kopts, err := buildSpec(world, spec)
	if err != nil {
		return nil, err
	}
	kopts = append(kopts, extra...)
	h := &Handle{World: world, Net: net, Port: spec.port(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = nvkernel.Run(world, net, progs, kopts...)
	}()

	// Wait for the listener so callers can dial immediately. The wait
	// is on the network's listen event, not a polling timer: a
	// sub-millisecond sleep oversleeps to a millisecond once every
	// goroutine is idle.
	expired := time.After(5 * time.Second)
	for {
		conn, err := net.Dial(h.Port)
		if err == nil {
			// The server's recv of this empty connection is a syscall
			// like any other, so wait until the server has closed it:
			// otherwise the caller's first requests race it, and a
			// fault plan that counts syscalls (a crash on the k-th
			// recv) would land by lane scheduling instead of by traffic.
			_ = conn.Close()
			select {
			case <-conn.PeerClosed():
			case <-h.done:
			case <-expired:
				return nil, fmt.Errorf("server did not finish the readiness probe")
			}
			return h, nil
		}
		select {
		case <-net.Listening(h.Port):
		case <-h.done:
			if h.err != nil {
				return nil, fmt.Errorf("server exited during startup: %w", h.err)
			}
			return nil, fmt.Errorf("server exited during startup: %+v", h.res.Alarm)
		case <-expired:
			return nil, fmt.Errorf("server did not start listening")
		}
	}
}

// Client returns an HTTP client for the server.
func (h *Handle) Client() *httpd.Client { return httpd.NewClient(h.Net, h.Port) }

// Stop shuts the server down (closing its port) and returns the run
// result.
func (h *Handle) Stop() (*nvkernel.Result, error) {
	select {
	case <-h.done:
		// Already finished (e.g. killed by an alarm).
	default:
		_ = h.Net.ShutdownPort(h.Port)
	}
	return h.Wait()
}

// Wait blocks until the group terminates and returns the result.
func (h *Handle) Wait() (*nvkernel.Result, error) {
	select {
	case <-h.done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("harness: server did not terminate")
	}
	return h.res, h.err
}

// Done returns a channel that is closed when the group terminates —
// for supervisors (the fleet) that must react to an alarm kill without
// blocking in Wait.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result returns the terminal run result. It is valid only after Done
// is closed; before that it returns nil, nil.
func (h *Handle) Result() (*nvkernel.Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	default:
		return nil, nil
	}
}
