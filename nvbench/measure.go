package main

import (
	"fmt"
	"runtime"
	"time"
)

const (
	// The workload is set up at least minSetups times and until
	// setupBudget has passed, counting the stops in between.
	minSetups   = 21
	setupBudget = time.Second
	// warmup is the unmeasured load before the first phase.
	warmup = 500 * time.Millisecond
	// unsatShare is the share of the measured seconds spent in the
	// unsaturated phase; the saturated phase gets the rest.
	unsatShare = 0.4
	// windowPair is the length of one unsaturated plus one saturated
	// window.
	windowPair = 500 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	// note is printed next to the value, e.g. the sample count.
	note string
}

// report is a run's outcome.
type report struct {
	metrics []metric
	// info holds numbers printed for people but left out of the JSON
	// result.
	info      []metric
	attempted int
	failed    int
	// problems lists failed checks; a report with any is not correct.
	problems []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// count adds the engines' outcomes to the report.
func (r *report) count(engines ...*engine) {
	for _, e := range engines {
		r.attempted += e.ok + e.failed
		r.failed += e.failed
		if e.err != nil {
			r.problems = append(r.problems, fmt.Sprintf("%d requests failed, first: %v", e.failed, e.err))
		}
	}
}

// newEngines returns n engines whose request sequences start at
// evenly spread positions of the seeded order.
func newEngines(n int) []*engine {
	es := make([]*engine, n)
	for i := range es {
		es[i] = newEngine(i * orderLen / n)
	}
	return es
}

// runUntraced measures the end-to-end metrics. After set-up and
// warm-up it alternates the two operating points in half-second window
// pairs — an unsaturated window (1 engine), then a saturated window (2
// engines) — so both see the same machine — and reports each metric
// as the median over the windows, which keeps a burst of outside load
// from moving a whole run.
func runUntraced(w workload, in *inputs, seconds float64) (*report, error) {
	rep := &report{}
	// A group's start-up lands on one of two modes of the harness's
	// listener polling, about 0.5 or 1.5 ms, about half the time each.
	// The median of the set-ups would flip between the modes from run
	// to run and their mean would follow a single slow outlier, so
	// setup_s is the mean of the middle half of many set-ups.
	var setups []float64
	var dep deployment
	for t0 := time.Now(); len(setups) < minSetups || time.Since(t0) < setupBudget; {
		if dep != nil {
			if err := dep.stop(); err != nil {
				rep.problems = append(rep.problems, err.Error())
			}
			// Collect each retired deployment before the next, so the
			// set-ups do not pile up garbage for the measured phases.
			runtime.GC()
		}
		d, dt, err := w.setUp(in, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.attempted++
		setups = append(setups, dt.Seconds())
		dep = d
	}

	pairs := max(1, int(seconds/windowPair.Seconds()+0.5))
	unsatDur := time.Duration(seconds * unsatShare / float64(pairs) * float64(time.Second))
	satDur := time.Duration(seconds * (1 - unsatShare) / float64(pairs) * float64(time.Second))
	engines := newEngines(2)
	phase(dep, in, engines, warmup)
	for _, e := range engines {
		e.reset()
	}
	runtime.GC()

	var rps, p50, p99, satP99, cpuPerReq, allocBytes, allocs, stealShare []float64
	var unsatN, satN int
	var m0, m1 runtime.MemStats
	for k := 0; k < pairs; k++ {
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		phase(dep, in, engines[:1], unsatDur)
		unsat := &engines[0].hist
		p50 = append(p50, unsat.percentile(50)/1e3)
		p99 = append(p99, unsat.percentile(99)/1e3)
		unsatN += unsat.n
		ok := engines[0].ok
		rep.count(engines[0])
		engines[0].reset()

		steal0 := stealTime()
		d := phase(dep, in, engines, satDur)
		steal := stealTime() - steal0
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		var sat latHist
		satOK := 0
		for _, e := range engines {
			sat.merge(&e.hist)
			satOK += e.ok
		}
		satP99 = append(satP99, sat.percentile(99)/1e3)
		satN += sat.n
		// The saturated phase keeps every CPU busy, so time the
		// hypervisor took from them is time the program could not run.
		// Throughput counts only the rest.
		ncpu := time.Duration(runtime.NumCPU())
		run := max(d-steal/ncpu, d/2)
		rps = append(rps, float64(satOK)/run.Seconds())
		stealShare = append(stealShare, steal.Seconds()/(d*ncpu).Seconds())
		ok += satOK
		cpuPerReq = append(cpuPerReq, float64(cpu)/1e3/float64(ok))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ok))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ok))
		rep.count(engines...)
		for _, e := range engines {
			e.reset()
		}
	}
	if err := dep.stop(); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}

	note := fmt.Sprintf("median of %d windows", pairs)
	rep.add("throughput_rps", median(rps), "1/s", fmt.Sprintf("%s of %v, 2 engines, less stolen CPU time", note, satDur))
	rep.add("latency_p50_us", median(p50), "us", fmt.Sprintf("%s of %v, 1 engine, n=%d", note, unsatDur, unsatN))
	rep.add("cpu_us_per_req", median(cpuPerReq), "us", note+", user+sys over both phases")
	rep.add("alloc_bytes_per_req", median(allocBytes), "B", note)
	rep.add("allocs_per_req", median(allocs), "count", note)
	// The p99s follow outside load on the machine. With a core taken by
	// another process the saturated one moved from 0.27 to 1.2 ms
	// between runs; between two sets of ten runs the unsaturated one
	// moved by 20% of its median on group-small, close to the largest
	// bound a gated metric may have. Peak RSS follows the memory limit
	// and what simnet's buffer pool holds when the GC runs. They are
	// printed, not gated.
	rep.info = append(rep.info,
		metric{name: "sat_latency_p99_us", value: median(satP99), unit: "us", note: fmt.Sprintf("%s, n=%d, printed only", note, satN)},
		metric{name: "latency_p99_us", value: median(p99), unit: "us", note: fmt.Sprintf("%s, n=%d, printed only", note, unsatN)},
		metric{name: "peak_rss_MiB", value: peakRSSMiB(), unit: "MiB", note: "printed only"},
		metric{name: "sat_steal_share", value: median(stealShare), unit: "ratio", note: note + ", CPU time the hypervisor took, printed only"})
	rep.add("setup_s", midMean(setups), "s", fmt.Sprintf("mean of the middle half of %d set-ups", len(setups)))
	return rep, nil
}
