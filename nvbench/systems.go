package main

import (
	"fmt"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

// workload names one deployment and one kind of input. The names are
// the benchmark's public interface (BENCHMARK.json).
type workload struct {
	name  string
	large bool // seeded 16–64 KiB documents instead of the stock ≤600 B ones
	mesh  bool // the rotating mesh instead of one group
}

var workloads = []workload{
	{name: "group-small"},
	{name: "group-large", large: true},
	{name: "mesh-rotate", mesh: true},
}

const (
	// groupLanes is W, the prefork lane count of the group workloads.
	groupLanes = 2
	// rotateEvery is the mesh-rotate rotation cadence in dispatch ticks.
	rotateEvery = 1000
	// meshSeed fixes the mesh's own randomness (masks, which pool
	// rotates), so that the workload seed varies only the inputs.
	meshSeed = 1
)

// deployment is a running system under test.
type deployment interface {
	client
	// stop shuts the deployment down and reports any alarm, detection
	// or quarantine it saw as an error.
	stop() error
}

// groupDep is one N-variant group dialed directly on its port.
type groupDep struct {
	directClient
	h *harness.Handle
}

// startGroup starts a Table 3 configuration with groupLanes lanes on a
// fresh world holding the workload's documents, on its own network.
// reg, when set, instruments simnet, the kernel and httpd; hook, when
// set, sees every variant's syscalls.
func startGroup(in *inputs, c harness.Configuration, reg *obs.Registry, hook nvkernel.FaultHook) (*groupDep, error) {
	world, err := vos.NewWorld()
	if err != nil {
		return nil, err
	}
	if err := in.install(world); err != nil {
		return nil, err
	}
	net := simnet.New(0)
	spec := harness.GroupSpec{Config: c, Workers: groupLanes}
	if reg != nil {
		net.SetMetrics(simnet.NewMetrics(reg))
		spec.Server.Metrics = httpd.NewMetrics(reg)
		spec.Kernel = append(spec.Kernel, nvkernel.WithMetrics(nvkernel.NewMetrics(reg)))
	}
	if hook != nil {
		spec.Kernel = append(spec.Kernel, nvkernel.WithFaultHook(hook))
	}
	h, err := harness.StartSpecOn(world, net, spec)
	if err != nil {
		return nil, err
	}
	return &groupDep{directClient: directClient{net: net, port: h.Port}, h: h}, nil
}

func (g *groupDep) stop() error {
	res, err := g.h.Stop()
	if err != nil {
		return err
	}
	if res != nil && res.Alarm != nil {
		return fmt.Errorf("group alarm: %w", res.Alarm)
	}
	return nil
}

// meshDep is the mesh reached through one session per session key.
type meshDep struct {
	*meshClient
	m           *mesh.Mesh
	rotateEvery uint64
}

// startMesh starts P=2 pools × 2 groups × N=2 with W=1 and hash
// routing, rotating every rotateEvery ticks (0: never). A dispatch that
// loses a race with a draining group is retried, and shows in
// mesh.retries_per_kreq instead of failing the run.
func startMesh(in *inputs, rotateEvery uint64, reg *obs.Registry) (*meshDep, error) {
	m, err := mesh.New(mesh.Options{
		Pools:       2,
		Policy:      mesh.HashRouting,
		RotateEvery: rotateEvery,
		RetryBudget: 2,
		Seed:        meshSeed,
		Fleet:       fleet.Options{Groups: 2, Variants: 2, Workers: 1},
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	return &meshDep{meshClient: newMeshClient(m, in.keys), m: m, rotateEvery: rotateEvery}, nil
}

func (d *meshDep) stop() error {
	if d.rotateEvery > 0 {
		// Let triggered rotations finish so none is cut off mid-drain.
		_ = d.m.Await(func(s mesh.Stats) bool {
			return s.RotationsHandled >= d.m.Ticks()/d.rotateEvery
		}, 30*time.Second)
	}
	st, err := d.m.Stop()
	if err != nil {
		return err
	}
	for _, p := range st.Pools {
		if p.Fleet.Detections > 0 || p.Fleet.Quarantined > 0 {
			return fmt.Errorf("mesh pool %d: %d detections, %d quarantines", p.Pool, p.Fleet.Detections, p.Fleet.Quarantined)
		}
	}
	return nil
}

// start deploys the workload's system.
func (w workload) start(in *inputs, reg *obs.Registry) (deployment, error) {
	if w.mesh {
		return startMesh(in, rotateEvery, reg)
	}
	return startGroup(in, harness.Config4UIDVariation, reg, nil)
}

// setUp deploys the workload and waits for its first verified
// response, returning the deployment and the time from the start of
// set-up to that response.
func (w workload) setUp(in *inputs, reg *obs.Registry) (deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := w.start(in, reg)
	if err != nil {
		return nil, 0, err
	}
	if err := d.fetch(in, 0, nil); err != nil {
		_ = d.stop()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return d, time.Since(t0), nil
}
