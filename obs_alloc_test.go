package nvariant

import (
	"sync"
	"testing"

	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
)

// TestInstrumentedRendezvousZeroAlloc proves the ISSUE's headline
// constraint directly: a monitor rendezvous with the obs metrics
// attached — latency histogram observed, syscall counter bumped —
// performs zero heap allocations. The channel-driven group below keeps
// variants parked between measured rounds so AllocsPerRun sees only
// steady-state rendezvous work.
func TestInstrumentedRendezvousZeroAlloc(t *testing.T) {
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	trigger := make(chan struct{}, n)
	roundDone := make(chan struct{}, n)
	stop := make(chan struct{})
	progs := make([]sys.Program, n)
	for i := range progs {
		progs[i] = sys.ProgramFunc{ProgName: "paced", Fn: func(ctx *sys.Context) error {
			for {
				select {
				case <-trigger:
				case <-stop:
					return ctx.Exit(0)
				}
				if _, err := ctx.Syscall(sys.Call{Num: sys.Time}); err != nil {
					return err
				}
				roundDone <- struct{}{}
			}
		}}
	}
	funcs := make([]reexpress.Func, n)
	for i := range funcs {
		funcs[i] = reexpress.Identity{}
	}

	reg := obs.NewRegistry()
	m := nvkernel.NewMetrics(reg)
	var (
		res    *nvkernel.Result
		runErr error
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, runErr = nvkernel.Run(world, simnet.New(0), progs,
			nvkernel.WithSpec(reexpress.UncheckedSpec(len(funcs), reexpress.UIDLayer(funcs...))), nvkernel.WithMetrics(m))
	}()

	round := func() {
		for i := 0; i < n; i++ {
			trigger <- struct{}{}
		}
		for i := 0; i < n; i++ {
			<-roundDone
		}
	}
	// Warm up past group startup and lazy runtime growth.
	for i := 0; i < 50; i++ {
		round()
	}
	avg := testing.AllocsPerRun(300, round)

	// Wind the group down: exits rendezvous like any other syscall.
	for i := 0; i < n; i++ {
		stop <- struct{}{}
	}
	wg.Wait()
	if runErr != nil || !res.Clean {
		t.Fatalf("run: %v %v", runErr, res.Alarm)
	}
	if avg != 0 {
		t.Errorf("instrumented rendezvous allocates %v/op, want 0", avg)
	}
	if got := reg.Histogram("nvk_rendezvous_latency_seconds", "", nil).Count(); got == 0 {
		t.Error("histogram saw no rendezvous — instrumentation not attached")
	}
}

// TestInstrumentedDispatchAddsNoAllocs is the differential proof for
// the fleet front door: a request through an instrumented fleet must
// allocate exactly what an uninstrumented one does.
//
// testing.AllocsPerRun counts process-wide mallocs, and noise only ever
// adds to them (the race runtime drops pooled objects at random, so a
// pool miss re-allocates). Under -race that noise averages about one
// allocation per request, so a single round reads either side of an
// integer at random. Each side is therefore measured over many short
// rounds and compared by its minimum: the quietest round bounds what
// the dispatch path itself allocates.
func TestInstrumentedDispatchAddsNoAllocs(t *testing.T) {
	perRequest := func(reg *obs.Registry) float64 {
		t.Helper()
		f, err := fleet.New(fleet.Options{Groups: 1, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _, _ = f.Stop() }()
		client := f.Client()
		get := func() {
			code, _, err := client.Get("/index.html")
			if err != nil || code != 200 {
				t.Fatalf("request: %d %v", code, err)
			}
		}
		for i := 0; i < 50; i++ {
			get()
		}
		least := testing.AllocsPerRun(50, get)
		for round := 1; round < 20; round++ {
			least = min(least, testing.AllocsPerRun(50, get))
		}
		return least
	}

	plain := perRequest(nil)
	instrumented := perRequest(obs.NewRegistry())
	if instrumented > plain {
		t.Errorf("instrumented dispatch allocates %v/op vs %v/op plain — instrumentation must add 0",
			instrumented, plain)
	}
}

// TestMeshSessionAddsNoAllocs is the differential proof for the mesh
// router: the session hot path (routing bookkeeping + mesh clock)
// must allocate exactly what a bare fleet dispatch does, with or
// without instrumentation — and with a retry budget armed, since the
// no-retry path must not pay for the retry machinery.
func TestMeshSessionAddsNoAllocs(t *testing.T) {
	req := httpd.AppendRequest(nil, "/index.html")

	fleetBaseline := func() float64 {
		f, err := fleet.New(fleet.Options{Groups: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _, _ = f.Stop() }()
		client := f.Client()
		fetch := func() {
			code, _, err := client.Fetch(req)
			if err != nil || code != 200 {
				t.Fatalf("fleet fetch: %d %v", code, err)
			}
		}
		for i := 0; i < 50; i++ {
			fetch()
		}
		return testing.AllocsPerRun(200, fetch)
	}

	meshSession := func(reg *obs.Registry) float64 {
		m, err := mesh.New(mesh.Options{Pools: 2, RetryBudget: 4, Obs: reg, Fleet: fleet.Options{Groups: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _, _ = m.Stop() }()
		s := m.Session("alloc-probe")
		fetch := func() {
			code, _, err := s.Fetch(req)
			if err != nil || code != 200 {
				t.Fatalf("mesh fetch: %d %v", code, err)
			}
		}
		for i := 0; i < 50; i++ {
			fetch()
		}
		return testing.AllocsPerRun(200, fetch)
	}

	plainFleet := fleetBaseline()
	plainMesh := meshSession(nil)
	instrMesh := meshSession(obs.NewRegistry())
	if plainMesh > plainFleet {
		t.Errorf("mesh session allocates %v/op vs %v/op bare fleet — the router must add 0", plainMesh, plainFleet)
	}
	if instrMesh > plainMesh {
		t.Errorf("instrumented mesh session allocates %v/op vs %v/op plain — instrumentation must add 0", instrMesh, plainMesh)
	}
}
