// Benchmarks regenerating the paper's evaluation artifacts. One bench
// (or bench family) per table and figure — see DESIGN.md's
// per-experiment index — plus ablation benches for the design choices
// discussed in §5.
package nvariant

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/experiments"
	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/transform"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
	"nvariant/internal/word"
)

// --- Table 1: reexpression function cost ------------------------------

func BenchmarkTable1Reexpression(b *testing.B) {
	for _, v := range reexpress.Table1() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			f := v.Pair.R1
			x := word.Word(30)
			if !f.Domain(x) {
				x = 0x00001000
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				y, err := f.Apply(x)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Invert(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: detection system call cost ------------------------------

// benchDetectionCalls measures the per-call cost of a Table 2 syscall
// under a live 2-variant monitor. Group startup (world, goroutines,
// address spaces) happens off the clock: every variant makes one warmup
// rendezvous, parks on a gate, and only the gated steady-state calls
// run inside the timed window.
func benchDetectionCalls(b *testing.B, num sys.Num) {
	b.Helper()
	pair := reexpress.UIDVariation().Pair
	world, err := vos.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	start := make(chan struct{})
	var warm sync.WaitGroup
	warm.Add(2)
	progs := make([]sys.Program, 2)
	for i := 0; i < 2; i++ {
		f := pair.Funcs()[i]
		progs[i] = sys.ProgramFunc{ProgName: "bench", Fn: func(ctx *sys.Context) error {
			u, err := f.Apply(30)
			if err != nil {
				return err
			}
			// Warmup rendezvous: proves the whole group is up before
			// the clock starts.
			if _, err := ctx.Syscall(sys.Call{Num: sys.Time}); err != nil {
				return err
			}
			warm.Done()
			<-start
			for k := 0; k < n; k++ {
				var callErr error
				switch num {
				case sys.UIDValue:
					_, callErr = ctx.UIDValue(u)
				case sys.CondChk:
					_, callErr = ctx.CondChk(true)
				default:
					_, callErr = ctx.CCEq(u, u)
				}
				if callErr != nil {
					return callErr
				}
			}
			return ctx.Exit(0)
		}}
	}
	b.ReportAllocs()
	var res *nvkernel.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = nvkernel.Run(world, simnet.New(0), progs, nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))))
	}()
	warm.Wait()
	b.ResetTimer()
	close(start)
	<-done
	b.StopTimer()
	if runErr != nil {
		b.Fatal(runErr)
	}
	if !res.Clean {
		b.Fatalf("alarm during benchmark: %v", res.Alarm)
	}
}

func BenchmarkTable2UIDValue(b *testing.B) { benchDetectionCalls(b, sys.UIDValue) }
func BenchmarkTable2CondChk(b *testing.B)  { benchDetectionCalls(b, sys.CondChk) }
func BenchmarkTable2CCEq(b *testing.B)     { benchDetectionCalls(b, sys.CCEq) }

// --- Table 3: the performance matrix ----------------------------------

// benchTable3 measures one configuration at one operating point,
// reporting Table 3's metrics (KB/s and ms).
func benchTable3(b *testing.B, cfg harness.Configuration, engines, requests int) {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serverOpts := httpd.Options{WorkFactor: 400}

	var totalKBps, totalMs float64
	for i := 0; i < b.N; i++ {
		h, err := harness.Start(cfg, serverOpts, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		m, err := webbench.Run(h.Net, h.Port, webbench.Options{
			Engines:           engines,
			RequestsPerEngine: requests,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if res.Alarm != nil {
			b.Fatalf("false alarm under benign load: %v", res.Alarm)
		}
		if m.Errors > 0 {
			b.Fatalf("%d request errors", m.Errors)
		}
		totalKBps += m.ThroughputKBps()
		totalMs += float64(m.MeanLatency().Microseconds()) / 1000
	}
	b.ReportMetric(totalKBps/float64(b.N), "KB/s")
	b.ReportMetric(totalMs/float64(b.N), "ms/req")
}

func BenchmarkTable3Config1Unsaturated(b *testing.B) {
	benchTable3(b, harness.Config1Unmodified, 1, 60)
}
func BenchmarkTable3Config2Unsaturated(b *testing.B) {
	benchTable3(b, harness.Config2Transformed, 1, 60)
}
func BenchmarkTable3Config3Unsaturated(b *testing.B) {
	benchTable3(b, harness.Config3AddressSpace, 1, 60)
}
func BenchmarkTable3Config4Unsaturated(b *testing.B) {
	benchTable3(b, harness.Config4UIDVariation, 1, 60)
}
func BenchmarkTable3Config1Saturated(b *testing.B) {
	benchTable3(b, harness.Config1Unmodified, 15, 12)
}
func BenchmarkTable3Config2Saturated(b *testing.B) {
	benchTable3(b, harness.Config2Transformed, 15, 12)
}
func BenchmarkTable3Config3Saturated(b *testing.B) {
	benchTable3(b, harness.Config3AddressSpace, 15, 12)
}
func BenchmarkTable3Config4Saturated(b *testing.B) {
	benchTable3(b, harness.Config4UIDVariation, 15, 12)
}

// --- Worker lanes: intra-group concurrency (prefork sweep) ------------

// benchTable3Workers measures the full configuration-4 stack under the
// paper's saturated load with W prefork worker lanes over the shared
// listener. Unlike benchTable3 it does not pin GOMAXPROCS — prefork
// exists to use the hardware. The per-request cost mixes a blocking
// service component (ServiceTime, which lanes overlap even on one
// CPU — the reason Apache preforks) with a CPU component (WorkFactor,
// which scales only up to GOMAXPROCS), so the sweep shows near-linear
// KB/s scaling in W until one of the two saturates.
func benchTable3Workers(b *testing.B, workers int) {
	b.Helper()
	serverOpts := httpd.Options{
		WorkFactor:  50,
		ServiceTime: 500 * time.Microsecond,
		Workers:     workers,
	}
	var totalKBps, totalMs float64
	for i := 0; i < b.N; i++ {
		h, err := harness.Start(harness.Config4UIDVariation, serverOpts, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		m, err := webbench.Run(h.Net, h.Port, webbench.Options{
			Engines:           15,
			RequestsPerEngine: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := h.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if res.Alarm != nil {
			b.Fatalf("false alarm under benign load: %v", res.Alarm)
		}
		if res.Workers != workers {
			b.Fatalf("group ran %d lanes, want %d", res.Workers, workers)
		}
		if m.Errors > 0 {
			b.Fatalf("%d request errors", m.Errors)
		}
		totalKBps += m.ThroughputKBps()
		totalMs += float64(m.MeanLatency().Microseconds()) / 1000
	}
	b.ReportMetric(totalKBps/float64(b.N), "KB/s")
	b.ReportMetric(totalMs/float64(b.N), "ms/req")
}

func BenchmarkTable3Config4Workers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchTable3Workers(b, w)
		})
	}
}

// --- Figure 1: address-partitioning detection -------------------------

func BenchmarkFigure1Detection(b *testing.B) {
	injected := word.Word(0x00001000)
	deref := sys.ProgramFunc{ProgName: "victim", Fn: func(ctx *sys.Context) error {
		if _, err := ctx.Mem.Alloc(4096); err != nil {
			return err
		}
		if _, err := ctx.Mem.LoadByte(injected); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}
	for i := 0; i < b.N; i++ {
		world, err := vos.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		res, err := nvkernel.Run(world, simnet.New(0),
			[]sys.Program{deref, deref}, nvkernel.WithAddressPartition())
		if err != nil {
			b.Fatal(err)
		}
		if res.Alarm == nil {
			b.Fatal("injection not detected")
		}
	}
}

// --- Figure 2: UID data-diversity detection ---------------------------

func BenchmarkFigure2Detection(b *testing.B) {
	pair := reexpress.UIDVariation().Pair
	forged := sys.ProgramFunc{ProgName: "forged", Fn: func(ctx *sys.Context) error {
		if _, err := ctx.UIDValue(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}
	for i := 0; i < b.N; i++ {
		world, err := vos.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		res, err := nvkernel.Run(world, simnet.New(0),
			[]sys.Program{forged, forged}, nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))))
		if err != nil {
			b.Fatal(err)
		}
		if res.Alarm == nil {
			b.Fatal("forged UID not detected")
		}
	}
}

// --- §3.2: overwrite campaign -----------------------------------------

func BenchmarkOverwriteCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOverwriteCampaign(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverwriteEvaluate(b *testing.B) {
	pair := reexpress.UIDVariation().Pair
	ow := attack.FullWord(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Evaluate(pair, 30, ow); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4: transformation ------------------------------------------------

func BenchmarkTransformCaseStudy(b *testing.B) {
	f := reexpress.XORMask{Mask: reexpress.UIDMask}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Apply(transform.SampleServerSource, f); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (§5 / DESIGN.md) ----------------------------------------

// benchRequestCost measures the per-request cost of configuration 4
// with and without the dedicated per-request detection call: the §5
// trade of detection precision against syscall count.
func benchRequestCost(b *testing.B, noDetectionCalls bool) {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serverOpts := httpd.Options{NoDetectionCalls: noDetectionCalls}
	h, err := harness.Start(harness.Config4UIDVariation, serverOpts, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := h.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, err := client.Get("/index.html")
		if err != nil || code != 200 {
			b.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	b.StopTimer()
	if _, err := h.Stop(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAblationDetectionCalls(b *testing.B)  { benchRequestCost(b, false) }
func BenchmarkAblationSyscallBoundary(b *testing.B) { benchRequestCost(b, true) }

// BenchmarkAblationRendezvous measures raw monitor rendezvous cost per
// syscall as group size grows. Like benchDetectionCalls, group startup
// runs off the clock behind a warmup gate so only steady-state
// rendezvous are timed. The kernel runs fully instrumented (obs
// metrics attached) so the 0 allocs/op gate proves the ops surface
// adds no allocation to the hot path.
func BenchmarkAblationRendezvous(b *testing.B) {
	reg := obs.NewRegistry()
	for _, n := range []int{1, 2, 3, 4, 5} {
		n := n
		b.Run(fmt.Sprintf("variants-%d", n), func(b *testing.B) {
			world, err := vos.NewWorld()
			if err != nil {
				b.Fatal(err)
			}
			iters := b.N
			start := make(chan struct{})
			var warm sync.WaitGroup
			warm.Add(n)
			progs := make([]sys.Program, n)
			for i := range progs {
				progs[i] = sys.ProgramFunc{ProgName: "spin", Fn: func(ctx *sys.Context) error {
					if _, err := ctx.Syscall(sys.Call{Num: sys.Time}); err != nil {
						return err
					}
					warm.Done()
					<-start
					for k := 0; k < iters; k++ {
						if _, err := ctx.Syscall(sys.Call{Num: sys.Time}); err != nil {
							return err
						}
					}
					return ctx.Exit(0)
				}}
			}
			funcs := make([]reexpress.Func, n)
			for i := range funcs {
				funcs[i] = reexpress.Identity{}
			}
			b.ReportAllocs()
			var res *nvkernel.Result
			var runErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, runErr = nvkernel.Run(world, simnet.New(0), progs,
					nvkernel.WithSpec(reexpress.UncheckedSpec(len(funcs), reexpress.UIDLayer(funcs...))),
					nvkernel.WithMetrics(nvkernel.NewMetrics(reg)))
			}()
			warm.Wait()
			b.ResetTimer()
			close(start)
			<-done
			b.StopTimer()
			if runErr != nil || !res.Clean {
				b.Fatalf("run: %v %v", runErr, res.Alarm)
			}
		})
	}
}

// BenchmarkAblationUnsharedFiles measures the open+read cost of shared
// vs unshared files (§3.4's mechanism cost).
func BenchmarkAblationUnsharedFiles(b *testing.B) {
	for _, unshared := range []bool{false, true} {
		unshared := unshared
		name := "shared"
		if unshared {
			name = "unshared"
		}
		b.Run(name, func(b *testing.B) {
			pair := reexpress.UIDVariation().Pair
			world, err := vos.NewWorld()
			if err != nil {
				b.Fatal(err)
			}
			if err := nvkernel.SetupUnsharedPasswd(world, pair.Funcs()); err != nil {
				b.Fatal(err)
			}
			iters := b.N
			prog := sys.ProgramFunc{ProgName: "reader", Fn: func(ctx *sys.Context) error {
				for k := 0; k < iters; k++ {
					fd, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0)
					if err != nil {
						return err
					}
					if _, err := ctx.ReadAll(fd); err != nil {
						return err
					}
					if err := ctx.Close(fd); err != nil {
						return err
					}
				}
				return ctx.Exit(0)
			}}
			opts := []nvkernel.Option{}
			if unshared {
				opts = append(opts, nvkernel.WithUnsharedFiles("/etc/passwd"))
			}
			b.ResetTimer()
			res, err := nvkernel.Run(world, simnet.New(0), []sys.Program{prog, prog}, opts...)
			b.StopTimer()
			if err != nil || !res.Clean {
				b.Fatalf("run: %v %v", err, res.Alarm)
			}
		})
	}
}

// --- Fleet: horizontal scaling and availability under attack -----------

// benchFleetSaturated measures saturated fleet throughput at one pool
// size. Unlike the Table 3 benches this deliberately runs on all
// cores: horizontal scaling across groups is the point.
func benchFleetSaturated(b *testing.B, groups, engines int) {
	b.Helper()
	serverOpts := httpd.DefaultOptions()
	serverOpts.WorkFactor = 400
	reg := obs.NewRegistry()
	var totalKBps, totalMs float64
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Options{Groups: groups, Server: serverOpts, Obs: reg})
		if err != nil {
			b.Fatal(err)
		}
		m, err := webbench.Run(f.Net(), f.Port(), webbench.Options{
			Engines:           engines,
			RequestsPerEngine: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats, err := f.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if m.Errors > 0 {
			b.Fatalf("%d request errors", m.Errors)
		}
		if stats.Detections != 0 {
			b.Fatalf("false detection under benign load: %+v", stats)
		}
		totalKBps += m.ThroughputKBps()
		totalMs += float64(m.MeanLatency().Microseconds()) / 1000
	}
	b.ReportMetric(totalKBps/float64(b.N), "KB/s")
	b.ReportMetric(totalMs/float64(b.N), "ms/req")
}

func BenchmarkFleetSaturatedPool1(b *testing.B) { benchFleetSaturated(b, 1, 15) }
func BenchmarkFleetSaturatedPool2(b *testing.B) { benchFleetSaturated(b, 2, 15) }
func BenchmarkFleetSaturatedPool4(b *testing.B) { benchFleetSaturated(b, 4, 15) }
func BenchmarkFleetSaturatedPool8(b *testing.B) { benchFleetSaturated(b, 8, 15) }

// BenchmarkFleetDispatchOverhead measures the per-request cost the
// dispatcher adds over a directly-dialed group (pool of one, so the
// difference is pure dispatch overhead). The fleet runs instrumented so
// the allocs/op gate proves counting dispatches stays allocation-free.
func BenchmarkFleetDispatchOverhead(b *testing.B) {
	f, err := fleet.New(fleet.Options{Groups: 1, Obs: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	client := f.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, err := client.Get("/index.html")
		if err != nil || code != 200 {
			b.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	b.StopTimer()
	if _, err := f.Stop(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMeshDispatchOverhead measures the per-request cost the mesh
// router adds on top of fleet dispatch (one pool, one group, so the
// difference against BenchmarkFleetDispatchOverhead is pure routing:
// the alarm and quorum-kill counter loads, served and dispatched
// accounting, and the mesh tick). The mesh runs instrumented and with
// a retry budget armed, so the allocs/op gate proves the no-retry hot
// path stays allocation-free even with the retry machinery compiled
// in.
func BenchmarkMeshDispatchOverhead(b *testing.B) {
	m, err := mesh.New(mesh.Options{
		Pools:       1,
		RetryBudget: 4,
		Obs:         obs.NewRegistry(),
		Fleet:       fleet.Options{Groups: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	sess := m.Session("bench")
	req := httpd.AppendRequest(nil, "/index.html")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, err := sess.Fetch(req)
		if err != nil || code != 200 {
			b.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	b.StopTimer()
	if _, err := m.Stop(); err != nil {
		b.Fatal(err)
	}
}

// --- DiversitySpec: generation and N-wide detection --------------------

// BenchmarkGenerateSpec measures the cost of drawing one validated
// full-stack spec — the fleet pays this on every replacement, so it
// bounds recovery latency.
func BenchmarkGenerateSpec(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		n := n
		b.Run(fmt.Sprintf("variants-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := reexpress.Generate(int64(i+1), n,
					reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
				if spec.N() != n {
					b.Fatalf("spec N = %d", spec.N())
				}
			}
		})
	}
}

// BenchmarkSpecDetection measures end-to-end forged-UID detection time
// as the group size grows (the N-wide Figure 2).
func BenchmarkSpecDetection(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		n := n
		b.Run(fmt.Sprintf("variants-%d", n), func(b *testing.B) {
			spec := reexpress.Generate(int64(n), n)
			forged := sys.ProgramFunc{ProgName: "forged", Fn: func(ctx *sys.Context) error {
				if _, err := ctx.UIDValue(0); err != nil {
					return err
				}
				return ctx.Exit(0)
			}}
			progs := make([]sys.Program, n)
			for i := range progs {
				progs[i] = forged
			}
			for i := 0; i < b.N; i++ {
				world, err := vos.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				res, err := nvkernel.Run(world, simnet.New(0), progs, nvkernel.WithSpec(spec))
				if err != nil {
					b.Fatal(err)
				}
				if res.Alarm == nil {
					b.Fatal("forged UID not detected")
				}
			}
		})
	}
}

// --- End-to-end attack detection ---------------------------------------

// BenchmarkAttackDetectionLatency measures the wall time from mounting
// the two-step UID-forging attack to the monitor's kill, on the full
// configuration-4 stack.
func BenchmarkAttackDetectionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := harness.Start(harness.Config4UIDVariation, httpd.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		client := h.Client()
		if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
			b.Fatal(err)
		}
		_, _, _ = client.Get("/private/secret.html")
		res, err := h.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if res.Alarm == nil {
			b.Fatal("attack not detected")
		}
	}
}
