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
