package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/simnet"
)

const (
	// overheadChunks alternate untraced and traced load on the
	// workload's own deployment.
	overheadChunks = 10
	// overheadShare and interleaveShare split the measured seconds.
	overheadShare   = 0.45
	interleaveShare = 0.55
	// countedRequests is the fixed request count the syscall counts
	// are taken over, so they repeat exactly for a seed.
	countedRequests = 512
	// spanCap bounds each tracer; the interleaved phase ends when its
	// tracer is full.
	spanCap = 1 << 19
	// writtenSpans bounds the spans written per tracer.
	writtenSpans = 20000
	echoPort     = 7
)

// countedCalls are the syscalls one request makes.
var countedCalls = []string{"accept", "recv", "uid_value", "seteuid", "open", "read", "close", "send"}

// entry is one way into the system that the interleaved phase times.
type entry struct {
	root spanName
	c    client
	in   *inputs
}

// meshCounters is a snapshot of mesh and fleet counters.
type meshCounters struct {
	dispatched, shed, retries, rotations, fleetDispatched, fleetErrors float64
	drainCount, drainSumNs                                             float64
}

func readMesh(m *mesh.Mesh, reg *obs.Registry) meshCounters {
	st := m.Stats()
	c := meshCounters{
		dispatched: float64(st.Dispatched),
		shed:       float64(st.Shed),
		retries:    float64(st.Retries),
		rotations:  float64(st.Rotations),
	}
	for _, p := range st.Pools {
		c.fleetDispatched += float64(p.Fleet.Dispatched)
		c.fleetErrors += float64(p.Fleet.DispatchErrors)
	}
	c.drainCount, c.drainSumNs = histogram(reg, "mesh_rotation_drain_seconds")
	return c
}

// addMesh reports the mesh and fleet counters between two snapshots.
func (r *report) addMesh(a, b meshCounters, requests float64) {
	rot := b.rotations - a.rotations
	r.add("mesh.rotations_per_kreq", 1000*rot/requests, "1/kreq", fmt.Sprintf("%.0f rotations", rot))
	drain := 0.0
	if n := b.drainCount - a.drainCount; n > 0 {
		drain = (b.drainSumNs - a.drainSumNs) / n / 1e6
	}
	r.add("mesh.rotation_drain_ms", drain, "ms", "mean, rotation start to pool replenished")
	shed := b.shed - a.shed
	r.add("mesh.shed_rate", shed/(b.dispatched-a.dispatched+shed), "ratio", "should be 0")
	r.add("mesh.retries_per_kreq", 1000*(b.retries-a.retries)/requests, "1/kreq", "should be 0")
	r.add("fleet.dispatch_errors_per_kreq", 1000*(b.fleetErrors-a.fleetErrors)/(b.fleetDispatched-a.fleetDispatched), "1/kreq", "")
}

// runTraced measures the per-layer breakdown in four steps:
//
//  1. the workload's own deployment, instrumented, under saturated load
//     alternating untraced and traced chunks: workload counters and
//     trace_overhead;
//  2. the entry points interleaved one request at a time with the same
//     inputs: echo listener, Config1–4 groups each on its own network,
//     a fleet group dialed directly, that fleet's front port, and a
//     mesh session routed to that fleet; layer self times by
//     subtraction of medians;
//  3. a fixed number of requests on the Config4 group: exact syscall
//     counts;
//  4. timed calls into vos, vmem, reexpress, harness and fleet.
func runTraced(w workload, in *inputs, seed int64, seconds float64, stdout io.Writer) (*report, error) {
	rep := &report{}
	epoch := time.Now()

	// 1. Workload deployment: counters and tracing overhead.
	reg := obs.NewRegistry()
	dep, _, err := w.setUp(in, reg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.attempted++
	engines := newEngines(2)
	phase(dep, in, engines, warmup)
	var md *meshDep
	var mesh0 meshCounters
	if d, ok := dep.(*meshDep); ok {
		md = d
		mesh0 = readMesh(md.m, reg)
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	msgs0, bytes0 := counter(reg, "simnet_messages_total"), counter(reg, "simnet_bytes_total")
	hits0, miss0 := sampled(reg, "simnet_buffer_pool_hits_total"), sampled(reg, "simnet_buffer_pool_misses_total")
	rdvN0, rdvSum0 := histogram(reg, "nvk_rendezvous_latency_seconds")
	svcN0, svcSum0 := histogram(reg, "httpd_service_time_seconds")
	tracers := []*tracer{newTracer(epoch, spanCap/4), newTracer(epoch, spanCap/4)}
	for _, t := range tracers {
		t.wrap = true
	}
	chunk := time.Duration(seconds * overheadShare / overheadChunks * float64(time.Second))
	var okOn, okOff, durOn, durOff float64
	for k := 0; k < overheadChunks; k++ {
		on := k%2 == 1
		before := 0
		for i, e := range engines {
			e.tr = nil
			if on {
				e.tr = tracers[i]
			}
			before += e.ok
		}
		d := phase(dep, in, engines, chunk).Seconds()
		done := float64(engines[0].ok + engines[1].ok - before)
		if on {
			okOn, durOn = okOn+done, durOn+d
		} else {
			okOff, durOff = okOff+done, durOff+d
		}
	}
	runtime.ReadMemStats(&gc1)
	reqA := okOn + okOff
	rdvN1, rdvSum1 := histogram(reg, "nvk_rendezvous_latency_seconds")
	svcN1, svcSum1 := histogram(reg, "httpd_service_time_seconds")
	hits1, miss1 := sampled(reg, "simnet_buffer_pool_hits_total"), sampled(reg, "simnet_buffer_pool_misses_total")
	rep.add("trace_overhead", (okOn/durOn)/(okOff/durOff), "ratio",
		fmt.Sprintf("traced %.0f over untraced %.0f rps, 2 engines", okOn/durOn, okOff/durOff))
	rep.add("simnet.messages_per_req", (counter(reg, "simnet_messages_total")-msgs0)/reqA, "count", "")
	rep.add("simnet.bytes_per_req", (counter(reg, "simnet_bytes_total")-bytes0)/reqA, "B", "")
	rep.add("simnet.buffer_pool_miss_rate", (miss1-miss0)/(hits1-hits0+miss1-miss0), "ratio", "")
	rep.add("nvkernel.rendezvous_ns", (rdvSum1-rdvSum0)/(rdvN1-rdvN0), "ns", fmt.Sprintf("mean of %.0f", rdvN1-rdvN0))
	rep.add("httpd.service_ns", (svcSum1-svcSum0)/(svcN1-svcN0), "ns", fmt.Sprintf("mean of %.0f", svcN1-svcN0))
	rep.add("runtime.gc_cycles_per_kreq", 1000*float64(gc1.NumGC-gc0.NumGC)/reqA, "1/kreq", "")
	if md != nil {
		rep.addMesh(mesh0, readMesh(md.m, reg), reqA)
	}
	rep.count(engines...)
	if err := dep.stop(); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}

	// 2. Entry points, interleaved.
	small := in
	if in.full {
		// Fleet and mesh groups build their own worlds, which hold only
		// the stock documents.
		if small, err = makeInputs(false, seed); err != nil {
			return nil, err
		}
	}
	echoNet := simnet.New(0)
	echo, err := startEcho(echoNet, echoPort, in)
	if err != nil {
		return nil, err
	}
	defer echo.stop()
	skew := newSkewHook(2, spanCap)
	var groups []*groupDep
	regs := make([]*obs.Registry, 4)
	for i, c := range []harness.Configuration{harness.Config1Unmodified, harness.Config2Transformed, harness.Config3AddressSpace, harness.Config4UIDVariation} {
		regs[i] = obs.NewRegistry()
		var hook nvkernel.FaultHook
		if c == harness.Config4UIDVariation {
			hook = skew
		}
		g, err := startGroup(in, c, regs[i], hook)
		if err != nil {
			return nil, fmt.Errorf("start %v: %w", c, err)
		}
		groups = append(groups, g)
	}
	meshReg := obs.NewRegistry()
	em, err := startMesh(small, 0, meshReg)
	if err != nil {
		return nil, err
	}
	sess := em.m.Session(small.keys[0])
	pool := em.m.Pool(sess.PoolIndex())
	live := pool.LiveGroups()
	if len(live) == 0 {
		return nil, fmt.Errorf("mesh pool %d has no groups", sess.PoolIndex())
	}
	entries := []entry{
		{spanEcho, &directClient{net: echoNet, port: echoPort}, in},
		{spanConfig1, groups[0], in},
		{spanConfig2, groups[1], in},
		{spanConfig3, groups[2], in},
		{spanConfig4, groups[3], in},
		{spanFleetDirect, &directClient{net: pool.Net(), port: live[0].Port}, small},
		{spanFleetFront, &directClient{net: pool.Net(), port: pool.Port()}, small},
		{spanMesh, &meshClient{sessions: []*mesh.Session{sess}}, small},
	}
	one := newEngine(0)
	for r := 0; r < 200; r++ {
		for _, en := range entries {
			one.next = r
			one.step(en.c, en.in, en.root)
		}
	}
	mesh1 := readMesh(em.m, meshReg)
	tr := newTracer(epoch, spanCap)
	one.tr = tr
	deadline := time.Now().Add(time.Duration(seconds * interleaveShare * float64(time.Second)))
	rounds := 0
	for ; time.Now().Before(deadline) && cap(tr.spans)-len(tr.spans) >= 8*len(entries); rounds++ {
		for k := range entries {
			en := entries[(rounds+k)%len(entries)]
			one.next = rounds
			one.step(en.c, en.in, en.root)
		}
	}
	one.tr = nil
	if md == nil {
		rep.addMesh(mesh1, readMesh(em.m, meshReg), float64(rounds))
	}
	med := func(n spanName) float64 { return percentile(tr.durations(n), 50) }
	echoNs, c1 := med(spanEcho), med(spanConfig1)
	cfg := []float64{c1, med(spanConfig2), med(spanConfig3), med(spanConfig4)}
	direct, front, meshNs := med(spanFleetDirect), med(spanFleetFront), med(spanMesh)
	note := fmt.Sprintf("median of %d interleaved rounds", rounds)
	rep.add("simnet.echo_rtt_ns", echoNs, "ns", note)
	rep.add("simnet.dial_ns", med(spanDial), "ns", "median over every dialed entry point")
	rep.add("httpd.self_ns_per_req", c1-echoNs, "ns", "config1 minus echo")
	rep.add("nvkernel.monitor_ns_per_req", cfg[3]-c1, "ns", "config4 minus config1")
	for i, v := range cfg {
		rep.add(fmt.Sprintf("harness.config%d_ns", i+1), v, "ns", harness.Configuration(i+1).String())
	}
	for i := 1; i < 4; i++ {
		rep.add(fmt.Sprintf("nvkernel.overhead_c%d_vs_c1", i+1), cfg[i]/c1, "ratio", fmt.Sprintf("base config1 %.0f ns", c1))
	}
	rep.add("fleet.direct_ns", direct, "ns", "a fleet group dialed directly")
	rep.add("fleet.front_ns", front, "ns", "the same fleet's front port")
	rep.add("mesh.fetch_ns", meshNs, "ns", "Session.Fetch routed to that fleet")
	rep.add("fleet.self_ns_per_req", front-direct, "ns", "front port minus direct")
	rep.add("mesh.self_ns_per_req", meshNs-front, "ns", "Session.Fetch minus front port")

	// 3. Exact syscall counts on the Config4 group.
	quiesce(regs[3])
	calls0 := syscallCounts(regs[3])
	for i := 0; i < countedRequests; i++ {
		one.next = i
		one.step(groups[3], in, spanRequest)
	}
	quiesce(regs[3])
	calls1 := syscallCounts(regs[3])
	total := 0.0
	for name, v := range calls1 {
		total += v - calls0[name]
	}
	rep.add("nvkernel.syscalls_per_req", total/countedRequests, "count", fmt.Sprintf("config4, %d requests", countedRequests))
	for _, name := range countedCalls {
		rep.add("nvkernel.syscalls_per_req."+name, (calls1[name]-calls0[name])/countedRequests, "count", "")
	}
	skews := skew.skews()
	rep.add("nvkernel.arrival_skew_ns_p50", percentile(skews, 50), "ns", fmt.Sprintf("config4, n=%d rendezvous", len(skews)))
	rep.add("nvkernel.arrival_skew_ns_p99", percentile(skews, 99), "ns", "")
	rep.count(one)

	// 4. Timed calls into single layers.
	openNs, readNs, err := vosCosts(in)
	if err != nil {
		return nil, fmt.Errorf("vos: %w", err)
	}
	rep.add("vos.open_ns", openNs, "ns", "FS.Open plus Close")
	rep.add("vos.read_ns_per_KiB", readNs, "ns/KiB", "")
	copyNs, err := vmemCopyNsPerKiB(in)
	if err != nil {
		return nil, fmt.Errorf("vmem: %w", err)
	}
	rep.add("vmem.copy_ns_per_KiB", copyNs, "ns/KiB", "WriteBytes plus ReadBytesInto")
	rep.add("reexpress.generate_us", generateUs(), "us", "N=2, uid+address+files")
	lanes := groupLanes
	if w.mesh {
		lanes = 1
	}
	spawn, err := spawnMs(lanes)
	if err != nil {
		rep.problems = append(rep.problems, "spawn: "+err.Error())
	}
	rep.add("harness.spawn_ms", spawn, "ms", fmt.Sprintf("StartSpec, config4, W=%d", lanes))
	rot, err := rotateMs(pool, mesh.DefaultDrainTimeout)
	if err != nil {
		rep.problems = append(rep.problems, "rotate: "+err.Error())
	}
	rep.add("fleet.rotate_ms", rot, "ms", "Rotate to pool replenished")
	rep.add("runtime.peak_rss_MiB", peakRSSMiB(), "MiB", "the traced process")

	for _, g := range groups {
		if err := g.stop(); err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
	}
	if err := em.stop(); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}

	printTable3(stdout, cfg)
	printSpans(stdout, append(tracers, tr))
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.ndjson", w.name, seed))
	if err := writeSpans(path, writtenSpans, tr, tracers[0], tracers[1]); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return rep, nil
}

// printTable3 frames the configuration medians the way the paper's
// Table 3 does: each configuration's cost relative to the unmodified
// server.
func printTable3(w io.Writer, cfg []float64) {
	fmt.Fprintln(w, "# Table 3 framing: median ns per request, one request in flight, base = config1")
	for i, v := range cfg {
		fmt.Fprintf(w, "#   config%d %-26s %10.0f ns  x%.3f\n", i+1, harness.Configuration(i+1).String(), v, v/cfg[0])
	}
}

// printSpans summarises every span name the tracers recorded.
func printSpans(w io.Writer, tracers []*tracer) {
	fmt.Fprintf(w, "# %-22s %9s %12s %12s\n", "span", "count", "p50_ns", "p99_ns")
	for n := spanName(0); n < spanNames; n++ {
		var ds []int64
		for _, t := range tracers {
			ds = append(ds, t.durations(n)...)
		}
		if len(ds) > 0 {
			p50 := percentile(ds, 50)
			fmt.Fprintf(w, "# %-22s %9d %12.0f %12.0f\n", spanLabels[n], len(ds), p50, percentile(ds, 99))
		}
	}
}
