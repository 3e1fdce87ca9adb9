// Command nvbench is the repository benchmark. It deploys one named
// workload of the N-variant system, drives it with closed-loop engines
// from a workload seed, checks every response, and prints the
// end-to-end metrics; with --trace 1 it prints the per-layer
// breakdown instead. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash nvbench/run.sh --workload group-small --seed 1 --seconds 10 --trace 0
//	bash nvbench/run.sh --workload mesh-rotate --seed 1 --seconds 10 --trace 1
//	bash nvbench/run.sh --workload group-large --seed 1 --seconds 10 --repeat 5
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// The collector settings the benchmark runs the system with. The
// system's live heap is under 1 MiB on the small-document workloads, so
// at Go's default GOGC of 100 the runtime's 4 MiB minimum heap goal
// starts a collection every 60 or so mesh requests, about 300 a second.
// That memory-bound work drifted with other tenants' load: over
// ten-second blocks of one run, CPU per request spread by 17% of its
// median at GOGC 100 and by 7% at 800. The soft memory limit keeps the
// larger live heaps of group-large and of the traced run from growing
// a heap goal of nine times their size. Allocation cost stays gated by
// alloc_bytes_per_req and allocs_per_req, which do not depend on these
// settings.
const (
	gcPercent   = 800
	memoryLimit = 128 << 20
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: group-small, group-large or mesh-rotate")
	seed := fs.Int64("seed", 1, "workload seed: URI order, large-document sizes and contents, session keys")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, … and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "nvbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memoryLimit)
	if *repeat > 0 {
		return steadiness(w, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}

	in, err := makeInputs(w.large, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "nvbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# nvbench %s\n", environment(w.name, *seed, *seconds, *trace))
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, in, *seed, *seconds, stdout)
	} else {
		rep, err = runUntraced(w, in, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "nvbench:", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "nvbench:", err)
		return 1
	}
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintln(stderr, "nvbench: check failed:", p)
		}
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// environment records what a result depends on besides the code.
func environment(name string, seed int64, seconds float64, trace int) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d GOGC=%d GOMEMLIMIT=%dMiB nproc=%d",
		name, seed, seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), gcPercent, memoryLimit>>20, runtime.NumCPU())
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints one line per metric, then the error rate, then
// the JSON result as the last line.
func printReport(w io.Writer, rep *report) error {
	res := jsonResult{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-40s %16.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, m := range rep.info {
		fmt.Fprintf(w, "%-40s %16.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "%-40s %16.6g %-8s %d failed of %d attempted, printed only\n", "error_rate",
		float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", rep.failed, rep.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
