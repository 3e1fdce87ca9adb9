// Command benchjson converts `go test -bench` output into the JSON
// trajectory format of BENCH_core.json, so the core hot-path numbers
// (rendezvous, Table 2/3, fleet dispatch) are machine-readable and
// gateable.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem | benchjson -label PR7        # one report
//	... | benchjson -label PR7 -append BENCH_core.json                   # extend a trajectory
//	... | benchjson -gate BENCH_core.json                                # fail on regressions
//
// A trajectory file is a JSON array of reports, ordered oldest first.
// -append also records go_loc, the module's non-test Go line count
// (every *.go file except *_test.go files and nvbench/, counted from
// the trajectory file's directory), so code size is tracked alongside
// the benchmarks; -gate ignores it.
// Repeated lines of one bench (go test -count=N) are collapsed into
// their per-field median before anything is emitted or gated, so one
// noisy run cannot fail the gate or enter the trajectory.
// -gate compares the parsed input against the newest report in the
// given trajectory and exits non-zero when any shared benchmark
// regressed beyond tolerance — the CI tripwire that makes performance
// regressions fail loudly. Two regression classes are gated: allocs/op
// and B/op growth (-tolerance), and the custom throughput/latency
// metrics KB/s (which must not drop) and ms/req (which must not grow)
// within -metric-tolerance — so a change that keeps allocations flat
// but halves saturated throughput still fails the build, and so does
// one that keeps the allocation count but makes each allocation larger.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result.
type Bench struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is one measurement run — the unit a trajectory appends.
type Report struct {
	Kind    string  `json:"kind"`
	Label   string  `json:"label,omitempty"`
	Goos    string  `json:"goos,omitempty"`
	Goarch  string  `json:"goarch,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	GoLOC   int     `json:"go_loc,omitempty"`
	Benches []Bench `json:"benches"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// gomaxprocsSuffix matches the -N cpu suffix go test appends to bench
// names when GOMAXPROCS > 1.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// normalizeNames strips the GOMAXPROCS suffix so reports from machines
// with different core counts compare. The suffix is uniform across a
// run, which distinguishes it from meaningful trailing numbers in
// sub-bench names (variants-2 … variants-5): names are rewritten only
// when every bench in the report carries the same trailing -N.
func normalizeNames(rep *Report) {
	if len(rep.Benches) == 0 {
		return
	}
	suffix := ""
	for i, b := range rep.Benches {
		m := gomaxprocsSuffix.FindStringSubmatch(b.Name)
		if m == nil {
			return
		}
		if i == 0 {
			suffix = m[1]
		} else if m[1] != suffix {
			return
		}
	}
	for i := range rep.Benches {
		rep.Benches[i].Name = strings.TrimSuffix(rep.Benches[i].Name, "-"+suffix)
	}
}

func main() {
	label := flag.String("label", "", "label recorded on the emitted report")
	appendTo := flag.String("append", "", "existing trajectory file to extend (output is the whole array)")
	gate := flag.String("gate", "", "trajectory file to regression-gate against (no JSON output)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional allocs/op and B/op growth before -gate fails")
	metricTolerance := flag.Float64("metric-tolerance", 0.25, "allowed fractional KB/s drop or ms/req growth before -gate fails (throughput benches are noisier than allocation counts)")
	flag.Parse()

	rep, err := parse(os.Stdin, *label)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *gate != "" {
		if err := gateAgainst(*gate, rep, *tolerance, *metricTolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	var out any = rep
	if *appendTo != "" {
		traj, err := readTrajectory(*appendTo)
		if err == nil {
			rep.GoLOC, err = goLOC(filepath.Dir(*appendTo))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		out = append(traj, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads go test -bench output.
func parse(f *os.File, label string) (Report, error) {
	rep := Report{Kind: "bench-core", Label: label}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Bench{Name: m[1]}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return rep, fmt.Errorf("line %q: %w", line, err)
		}
		b.Iters = iters
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("line %q: value %q: %w", line, fields[i], err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		rep.Benches = append(rep.Benches, b)
	}
	normalizeNames(&rep)
	rep.Benches = collapseRepeats(rep.Benches)
	return rep, sc.Err()
}

// collapseRepeats merges the lines of each bench name (one per -count
// run) into one bench holding the per-field median, keeping the order
// of first appearance.
func collapseRepeats(benches []Bench) []Bench {
	runs := make(map[string][]Bench, len(benches))
	var names []string
	for _, b := range benches {
		if _, ok := runs[b.Name]; !ok {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Bench, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		field := func(get func(Bench) float64) float64 {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = get(r)
			}
			return median(vals)
		}
		b := Bench{
			Name:        name,
			Iters:       int64(field(func(b Bench) float64 { return float64(b.Iters) })),
			NsPerOp:     field(func(b Bench) float64 { return b.NsPerOp }),
			BytesPerOp:  field(func(b Bench) float64 { return b.BytesPerOp }),
			AllocsPerOp: field(func(b Bench) float64 { return b.AllocsPerOp }),
		}
		metrics := make(map[string][]float64)
		for _, r := range rs {
			for unit, v := range r.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		for unit, vals := range metrics {
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64, len(metrics))
			}
			b.Metrics[unit] = median(vals)
		}
		out = append(out, b)
	}
	return out
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count). vals is reordered.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// goLOC counts the lines of every non-test Go file under root, except
// those under root/nvbench (the separate benchmark module).
func goLOC(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "nvbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		lines += bytes.Count(data, []byte("\n"))
		return err
	})
	return lines, err
}

// readTrajectory loads a trajectory array (or a single report, which
// becomes a one-entry trajectory). A missing file is an empty one.
func readTrajectory(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var traj []Report
	if err := json.Unmarshal(data, &traj); err == nil {
		return traj, nil
	}
	var one Report
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: not a report or trajectory: %w", path, err)
	}
	return []Report{one}, nil
}

// gatedMetrics lists the custom metrics the gate watches, with their
// improvement direction: higherBetter metrics fail on a drop beyond
// tolerance, the rest fail on growth.
var gatedMetrics = []struct {
	unit         string
	higherBetter bool
}{
	{"KB/s", true},
	{"ms/req", false},
}

// metricRegression reports whether cur regressed against base beyond
// tolerance, for the given direction.
func metricRegression(base, cur float64, higherBetter bool, tolerance float64) bool {
	if higherBetter {
		return cur < base*(1-tolerance)
	}
	return cur > base*(1+tolerance)
}

// gateAgainst compares cur's allocs/op, B/op and gated custom metrics
// against the newest report in the trajectory at path.
func gateAgainst(path string, cur Report, tolerance, metricTolerance float64) error {
	traj, err := readTrajectory(path)
	if err != nil {
		return err
	}
	if len(traj) == 0 {
		return fmt.Errorf("%s: empty trajectory, nothing to gate against", path)
	}
	base := traj[len(traj)-1]
	baseBy := make(map[string]Bench, len(base.Benches))
	for _, b := range base.Benches {
		baseBy[b.Name] = b
	}
	var regressed []string
	seen := make(map[string]bool, len(cur.Benches))
	for _, b := range cur.Benches {
		seen[b.Name] = true
		bb, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		for _, m := range [...]struct {
			unit      string
			base, cur float64
		}{
			{"allocs/op", bb.AllocsPerOp, b.AllocsPerOp},
			{"B/op", bb.BytesPerOp, b.BytesPerOp},
		} {
			status := "ok"
			if metricRegression(m.base, m.cur, false, tolerance) {
				status = "REGRESSED"
				regressed = append(regressed, b.Name+" ["+m.unit+"]")
			}
			fmt.Printf("%-48s %-9s %10.0f -> %10.0f  %s\n", b.Name, m.unit, m.base, m.cur, status)
		}
		for _, gm := range gatedMetrics {
			bv, inBase := bb.Metrics[gm.unit]
			if !inBase {
				continue // metric newly added by this run: nothing to gate yet
			}
			cv, inCur := b.Metrics[gm.unit]
			if !inCur {
				// A gated metric the baseline reports has vanished from
				// the input (a dropped ReportMetric call, a parse
				// change): failing loudly beats silently un-gating the
				// regression class this tripwire exists for — the same
				// reasoning as the missing-bench guard below.
				regressed = append(regressed, b.Name+" ["+gm.unit+" missing from input]")
				fmt.Printf("%-48s %-9s %10.2f -> %10s  MISSING\n", b.Name, gm.unit, bv, "(none)")
				continue
			}
			status := "ok"
			if metricRegression(bv, cv, gm.higherBetter, metricTolerance) {
				status = "REGRESSED"
				regressed = append(regressed, b.Name+" ["+gm.unit+"]")
			}
			fmt.Printf("%-48s %-9s %10.2f -> %10.2f  %s\n", b.Name, gm.unit, bv, cv, status)
		}
	}
	// A baseline bench missing from the input would otherwise escape
	// the gate entirely (a typo'd CI bench regex silently passing is
	// exactly the failure mode this tripwire exists for).
	var missing []string
	for _, b := range base.Benches {
		if !seen[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("baseline benches missing from input (gate would be blind to them): %s",
			strings.Join(missing, ", "))
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed beyond tolerance (allocs/op and B/op %.0f%%, metrics %.0f%%) vs %q: %s",
			tolerance*100, metricTolerance*100, base.Label, strings.Join(regressed, ", "))
	}
	return nil
}
