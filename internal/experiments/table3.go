package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/webbench"
)

// Table3Options sizes the performance experiment. The defaults trade a
// few seconds of runtime for stable shape; the paper's absolute
// numbers are not reproducible (different hardware and substrate), but
// the ratios between configurations are.
type Table3Options struct {
	// UnsatRequests is the request count for the single-engine run.
	UnsatRequests int
	// SatEngines is the saturated engine count (paper: 3 clients × 5
	// engines = 15).
	SatEngines int
	// SatRequestsPerEngine is each saturated engine's request count.
	SatRequestsPerEngine int
	// WorkFactor is the per-request CPU work in the server.
	WorkFactor int
	// Latency is the simulated one-way wire latency (makes the
	// unsaturated case I/O-bound, as on the paper's LAN).
	Latency time.Duration
	// SingleCPU pins GOMAXPROCS to 1 for the duration, reproducing the
	// paper's uniprocessor testbed (the ≈½ saturated throughput of the
	// 2-variant systems is a uniprocessor artifact).
	SingleCPU bool
}

// DefaultTable3Options returns the standard experiment sizing.
// WorkFactor is calibrated so that request processing is compute-bound
// under saturation (the paper's testbed property that makes redundant
// computation halve throughput) while the 1 ms wire latency keeps the
// single-client case I/O-bound.
func DefaultTable3Options() Table3Options {
	return Table3Options{
		UnsatRequests:        300,
		SatEngines:           15,
		SatRequestsPerEngine: 40,
		WorkFactor:           400,
		Latency:              time.Millisecond,
		SingleCPU:            true,
	}
}

// Table3Cell is one measurement pair.
type Table3Cell struct {
	// ThroughputKBps is in kilobytes per second.
	ThroughputKBps float64
	// LatencyMs is the mean request latency in milliseconds.
	LatencyMs float64
}

// Table3Row is one configuration's column of Table 3.
type Table3Row struct {
	// Config is the configuration.
	Config harness.Configuration
	// Unsaturated and Saturated are the two operating points.
	Unsaturated, Saturated Table3Cell
	// Errors counts failed requests across both runs (should be 0).
	Errors int
	// Requests counts completed requests across both runs.
	Requests int
	// VariantSyscalls counts the syscalls the variants issued across
	// both runs (each run's readiness probe and shutdown included):
	// the monitor's rendezvous count times the variant count. Unlike
	// the wall-clock cells it is deterministic — the redundant work
	// behind the saturated ratios.
	VariantSyscalls int
}

// Table3Result is the regenerated Table 3.
type Table3Result struct {
	// Rows hold configurations 1–4 in order.
	Rows []Table3Row
	// Paper holds the paper's published values for comparison.
	Paper []Table3Row
}

// PaperTable3 returns the published Table 3 values.
func PaperTable3() []Table3Row {
	return []Table3Row{
		{Config: harness.Config1Unmodified,
			Unsaturated: Table3Cell{1010, 5.81}, Saturated: Table3Cell{5420, 16.32}},
		{Config: harness.Config2Transformed,
			Unsaturated: Table3Cell{973, 5.81}, Saturated: Table3Cell{5372, 16.24}},
		{Config: harness.Config3AddressSpace,
			Unsaturated: Table3Cell{887, 6.56}, Saturated: Table3Cell{2369, 37.36}},
		{Config: harness.Config4UIDVariation,
			Unsaturated: Table3Cell{877, 6.65}, Saturated: Table3Cell{2262, 38.49}},
	}
}

// RunTable3 measures throughput and latency for the four
// configurations at both operating points.
func RunTable3(opts Table3Options) (Table3Result, error) {
	if opts.SingleCPU {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
	}
	res := Table3Result{Paper: PaperTable3()}
	configs := []harness.Configuration{
		harness.Config1Unmodified,
		harness.Config2Transformed,
		harness.Config3AddressSpace,
		harness.Config4UIDVariation,
	}
	for _, c := range configs {
		row, err := measureConfig(c, opts)
		if err != nil {
			return res, fmt.Errorf("configuration %d (%s): %w", c, c, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// measureConfig runs both operating points for one configuration.
func measureConfig(c harness.Configuration, opts Table3Options) (Table3Row, error) {
	row := Table3Row{Config: c}
	serverOpts := httpd.DefaultOptions()
	serverOpts.WorkFactor = opts.WorkFactor

	unsat, err := measureLoad(&row, serverOpts, opts.Latency, webbench.Options{
		Engines:           1,
		RequestsPerEngine: opts.UnsatRequests,
	})
	if err != nil {
		return row, fmt.Errorf("unsaturated: %w", err)
	}
	row.Unsaturated = toCell(unsat)

	sat, err := measureLoad(&row, serverOpts, opts.Latency, webbench.Options{
		Engines:           opts.SatEngines,
		RequestsPerEngine: opts.SatRequestsPerEngine,
	})
	if err != nil {
		return row, fmt.Errorf("saturated: %w", err)
	}
	row.Saturated = toCell(sat)
	return row, nil
}

// measureLoad starts a fresh server for row's configuration, applies
// the load, stops it, and adds the run's counts to row.
func measureLoad(row *Table3Row, serverOpts httpd.Options, latency time.Duration, load webbench.Options) (webbench.Metrics, error) {
	h, err := harness.Start(row.Config, serverOpts, latency)
	if err != nil {
		return webbench.Metrics{}, err
	}
	metrics, err := webbench.Run(h.Net, h.Port, load)
	if err != nil {
		_, _ = h.Stop()
		return metrics, err
	}
	res, err := h.Stop()
	if err != nil {
		return metrics, err
	}
	if res.Alarm != nil {
		return metrics, fmt.Errorf("false alarm under benign load: %s", res.Alarm)
	}
	row.Errors += metrics.Errors
	row.Requests += metrics.Requests
	row.VariantSyscalls += res.Rendezvous * row.Config.Variants()
	return metrics, nil
}

func toCell(m webbench.Metrics) Table3Cell {
	return Table3Cell{
		ThroughputKBps: m.ThroughputKBps(),
		LatencyMs:      float64(m.MeanLatency().Microseconds()) / 1000,
	}
}

// Fprint renders measured-vs-paper in the paper's Table 3 layout.
func (r Table3Result) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Table 3. Performance Results (measured on the simulated substrate; paper values for shape comparison).")
	fmt.Fprintf(w, "%-28s %-26s %-26s\n", "", "Unsaturated", "Saturated")
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", "Configuration", "KB/s", "ms", "KB/s", "ms")
	for i, row := range r.Rows {
		fmt.Fprintf(w, "%-28s %12.1f %12.3f %12.1f %12.3f\n",
			row.Config.String(), row.Unsaturated.ThroughputKBps, row.Unsaturated.LatencyMs,
			row.Saturated.ThroughputKBps, row.Saturated.LatencyMs)
		if i < len(r.Paper) {
			p := r.Paper[i]
			fmt.Fprintf(w, "%-28s %12.0f %12.2f %12.0f %12.2f\n",
				"  (paper)", p.Unsaturated.ThroughputKBps, p.Unsaturated.LatencyMs,
				p.Saturated.ThroughputKBps, p.Saturated.LatencyMs)
		}
	}
	r.fprintShape(w)
}

// fprintShape prints the ratios the paper highlights.
func (r Table3Result) fprintShape(w io.Writer) {
	if len(r.Rows) < 4 {
		return
	}
	base, twoVar, uid := r.Rows[0], r.Rows[2], r.Rows[3]
	fmt.Fprintf(w, "\nShape checks (paper's headline ratios):\n")
	fmt.Fprintf(w, "  config3/config1 saturated throughput: %.2f (paper 0.44, i.e. -56%%)\n",
		ratio(twoVar.Saturated.ThroughputKBps, base.Saturated.ThroughputKBps))
	fmt.Fprintf(w, "  config4/config3 saturated throughput: %.2f (paper 0.95, i.e. -4.5%%)\n",
		ratio(uid.Saturated.ThroughputKBps, twoVar.Saturated.ThroughputKBps))
	fmt.Fprintf(w, "  config2/config1 saturated throughput: %.2f (paper 0.99)\n",
		ratio(r.Rows[1].Saturated.ThroughputKBps, base.Saturated.ThroughputKBps))
	fmt.Fprintf(w, "  config3/config1 unsaturated throughput: %.2f (paper 0.88)\n",
		ratio(twoVar.Unsaturated.ThroughputKBps, base.Unsaturated.ThroughputKBps))
	fmt.Fprintf(w, "  variant syscalls per request:")
	for _, row := range r.Rows {
		fmt.Fprintf(w, " config%d %.2f", int(row.Config), ratio(float64(row.VariantSyscalls), float64(row.Requests)))
	}
	fmt.Fprintln(w)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
