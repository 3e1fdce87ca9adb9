package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrajectory writes a one-report trajectory file for gating.
func writeTrajectory(t *testing.T, benches []Bench) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traj.json")
	data, err := json.Marshal([]Report{{Kind: "bench-core", Label: "base", Benches: benches}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateMetricRegressions(t *testing.T) {
	base := []Bench{{
		Name:        "BenchmarkSaturated",
		Iters:       3,
		BytesPerOp:  50000,
		AllocsPerOp: 1000,
		Metrics:     map[string]float64{"KB/s": 1000, "ms/req": 20},
	}}
	cases := []struct {
		name    string
		cur     Bench
		wantErr string
	}{
		{
			name: "within-tolerance",
			cur: Bench{Name: "BenchmarkSaturated", BytesPerOp: 54000, AllocsPerOp: 1050,
				Metrics: map[string]float64{"KB/s": 900, "ms/req": 22}},
		},
		{
			name: "throughput-drop",
			cur: Bench{Name: "BenchmarkSaturated", AllocsPerOp: 1000,
				Metrics: map[string]float64{"KB/s": 500, "ms/req": 20}},
			wantErr: "KB/s",
		},
		{
			name: "latency-growth",
			cur: Bench{Name: "BenchmarkSaturated", AllocsPerOp: 1000,
				Metrics: map[string]float64{"KB/s": 1000, "ms/req": 40}},
			wantErr: "ms/req",
		},
		{
			name: "allocs-growth",
			cur: Bench{Name: "BenchmarkSaturated", AllocsPerOp: 2000,
				Metrics: map[string]float64{"KB/s": 1000, "ms/req": 20}},
			wantErr: "BenchmarkSaturated [allocs/op]",
		},
		{
			// Same allocation count, bigger allocations: a buffer that
			// grew tenfold must not hide behind a flat allocs/op.
			name: "bytes-growth",
			cur: Bench{Name: "BenchmarkSaturated", BytesPerOp: 500000, AllocsPerOp: 1000,
				Metrics: map[string]float64{"KB/s": 1000, "ms/req": 20}},
			wantErr: "BenchmarkSaturated [B/op]",
		},
		{
			// A higher-is-better metric improving sharply must not trip
			// the gate, nor must a latency improvement.
			name: "improvements",
			cur: Bench{Name: "BenchmarkSaturated", BytesPerOp: 2000, AllocsPerOp: 10,
				Metrics: map[string]float64{"KB/s": 4000, "ms/req": 5}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := writeTrajectory(t, base)
			err := gateAgainst(path, Report{Benches: []Bench{tc.cur}}, 0.10, 0.25)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("gate error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestGateMissingBaselineBench(t *testing.T) {
	path := writeTrajectory(t, []Bench{
		{Name: "BenchmarkA", AllocsPerOp: 1},
		{Name: "BenchmarkB", AllocsPerOp: 1},
	})
	err := gateAgainst(path, Report{Benches: []Bench{{Name: "BenchmarkA", AllocsPerOp: 1}}}, 0.10, 0.25)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("gate error = %v, want missing-bench failure naming BenchmarkB", err)
	}
}

func TestGateIgnoresUnsharedMetrics(t *testing.T) {
	// A bench whose baseline has no custom metrics is gated on allocs
	// alone — a metric newly reported by the input has no baseline yet.
	path := writeTrajectory(t, []Bench{{Name: "BenchmarkX", AllocsPerOp: 5}})
	cur := Report{Benches: []Bench{{Name: "BenchmarkX", AllocsPerOp: 5,
		Metrics: map[string]float64{"KB/s": 1}}}}
	if err := gateAgainst(path, cur, 0.10, 0.25); err != nil {
		t.Fatalf("gate failed on unshared metric: %v", err)
	}
}

func TestGateFailsOnVanishedMetric(t *testing.T) {
	// A gated metric present in the baseline but missing from the input
	// (e.g. a dropped ReportMetric call) must fail loudly, not silently
	// disable throughput gating.
	path := writeTrajectory(t, []Bench{{Name: "BenchmarkX", AllocsPerOp: 5,
		Metrics: map[string]float64{"KB/s": 1000}}})
	cur := Report{Benches: []Bench{{Name: "BenchmarkX", AllocsPerOp: 5}}}
	err := gateAgainst(path, cur, 0.10, 0.25)
	if err == nil || !strings.Contains(err.Error(), "KB/s missing") {
		t.Fatalf("gate error = %v, want vanished-metric failure", err)
	}
}

func TestParseCollapsesRepeatsToMedian(t *testing.T) {
	// Six -count runs of one bench, one of them a wild outlier, become
	// one bench at the per-field median; a bench run once is unchanged.
	in := `goos: linux
BenchmarkSat-2   3   300 ns/op   100 B/op   4 allocs/op   900 KB/s   20.0 ms/req
BenchmarkOnce-2  10  50 ns/op
BenchmarkSat-2   3   310 ns/op   100 B/op   4 allocs/op   950 KB/s   19.0 ms/req
BenchmarkSat-2   3   290 ns/op   100 B/op   4 allocs/op   400 KB/s   45.0 ms/req
BenchmarkSat-2   3   305 ns/op   100 B/op   4 allocs/op   920 KB/s   19.5 ms/req
BenchmarkSat-2   3   295 ns/op   120 B/op   5 allocs/op   940 KB/s   19.2 ms/req
BenchmarkSat-2   3   9000 ns/op  100 B/op   4 allocs/op   910 KB/s   20.5 ms/req
`
	f, err := os.CreateTemp(t.TempDir(), "bench")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(in); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := parse(f, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benches) != 2 || rep.Benches[0].Name != "BenchmarkSat" || rep.Benches[1].Name != "BenchmarkOnce" {
		t.Fatalf("benches = %+v, want BenchmarkSat then BenchmarkOnce", rep.Benches)
	}
	sat := rep.Benches[0]
	if sat.NsPerOp != 302.5 || sat.BytesPerOp != 100 || sat.AllocsPerOp != 4 || sat.Iters != 3 {
		t.Errorf("collapsed = %+v, want 302.5 ns/op, 100 B/op, 4 allocs/op, 3 iters", sat)
	}
	if sat.Metrics["KB/s"] != 915 || sat.Metrics["ms/req"] != 19.75 {
		t.Errorf("collapsed metrics = %v, want 915 KB/s, 19.75 ms/req", sat.Metrics)
	}
	if once := rep.Benches[1]; once.NsPerOp != 50 || once.Metrics != nil {
		t.Errorf("single run = %+v, want it unchanged", once)
	}

	// The outlier run alone would fail the gate; the median passes.
	path := writeTrajectory(t, []Bench{{Name: "BenchmarkSat", BytesPerOp: 100, AllocsPerOp: 4,
		Metrics: map[string]float64{"KB/s": 900, "ms/req": 20}}, {Name: "BenchmarkOnce"}})
	if err := gateAgainst(path, rep, 0.10, 0.25); err != nil {
		t.Errorf("gate on the median failed: %v", err)
	}
}

func TestGoLOCCountsNonTestGoOutsideNvbench(t *testing.T) {
	root := t.TempDir()
	for path, lines := range map[string]int{
		"a.go":                 3,
		"a_test.go":            5,
		"internal/x/b.go":      2,
		"internal/x/b.txt":     7,
		"nvbench/c.go":         4,
		"cmd/nvbench/d.go":     1,
		"internal/x/e_test.go": 6,
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(strings.Repeat("x\n", lines)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := goLOC(root)
	if err != nil {
		t.Fatal(err)
	}
	// a.go + internal/x/b.go + cmd/nvbench/d.go: only the top-level
	// nvbench module is excluded.
	if got != 6 {
		t.Errorf("goLOC = %d, want 6", got)
	}
}
