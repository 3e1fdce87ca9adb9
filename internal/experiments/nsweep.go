package experiments

import (
	"fmt"
	"io"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
)

// NSweepOptions sizes the N-sweep: detection rate and throughput of
// the full configuration-4 stack as the variant count grows. This goes
// beyond the paper, whose evaluation stops at N = 2; related work
// (arXiv:2111.10090) predicts effectiveness grows with the number of
// simultaneously deployed variants, and the sweep produces the numbers
// for this reproduction.
type NSweepOptions struct {
	// Ns lists the group sizes to sweep (default 2,3,4,5).
	Ns []int
	// Trials is the number of independent attack trials per N, each on
	// a freshly generated spec (default 3).
	Trials int
	// Engines is the concurrent webbench engine count of the
	// throughput measurement.
	Engines int
	// RequestsPerEngine is each engine's request count.
	RequestsPerEngine int
	// WorkFactor is the per-request CPU work in the servers.
	WorkFactor int
	// Workers is the per-group prefork worker-lane count (0 = serial).
	Workers int
}

// DefaultNSweepOptions returns the standard sizing.
func DefaultNSweepOptions() NSweepOptions {
	return NSweepOptions{
		Ns:                []int{2, 3, 4, 5},
		Trials:            3,
		Engines:           8,
		RequestsPerEngine: 15,
		WorkFactor:        200,
	}
}

// NSweepRow is one swept group size.
type NSweepRow struct {
	// N is the group size.
	N int
	// Spec describes the generated DiversitySpec of the throughput run.
	Spec string
	// Load is the benign saturated-load measurement.
	Load webbench.Metrics
	// Detections counts detected attack trials (out of Trials).
	Detections int
	// Trials is the attack trial count.
	Trials int
	// Leaks counts trials in which the secret was disclosed (must stay
	// 0 at every N).
	Leaks int
}

// NSweepReport is the sweep result.
type NSweepReport struct {
	// Opts is the sizing used.
	Opts NSweepOptions
	// Rows holds one row per swept N.
	Rows []NSweepRow
}

// RunNSweep measures, for each N, benign throughput under load (with
// no false alarms allowed) and the detection rate of the planted
// UID-forging attack, each trial on a freshly generated N-variant
// DiversitySpec carrying the full §4 stack.
func RunNSweep(opts NSweepOptions) (*NSweepReport, error) {
	if len(opts.Ns) == 0 {
		opts.Ns = []int{2, 3, 4, 5}
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	if opts.Engines <= 0 || opts.RequestsPerEngine <= 0 {
		return nil, fmt.Errorf("nsweep: non-positive sizing: %+v", opts)
	}
	report := &NSweepReport{Opts: opts}
	for _, n := range opts.Ns {
		if n < 2 {
			return nil, fmt.Errorf("nsweep: N must be at least 2, got %d", n)
		}
		row, err := runNSweepCell(opts, n)
		if err != nil {
			return nil, fmt.Errorf("nsweep N=%d: %w", n, err)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// nSweepSpec generates the cell's deployment spec from a fixed seed,
// so sweeps reproduce.
func nSweepSpec(n int, trial int) *reexpress.Spec {
	return reexpress.Generate(1+int64(1000*n+trial), n,
		reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
}

// startNSweepGroup launches one N-variant configuration-4 group.
func startNSweepGroup(opts NSweepOptions, spec *reexpress.Spec) (*harness.Handle, error) {
	serverOpts := httpd.DefaultOptions()
	serverOpts.WorkFactor = opts.WorkFactor
	return harness.StartSpec(simnet.New(0), harness.GroupSpec{
		Config:    harness.Config4UIDVariation,
		Server:    serverOpts,
		Diversity: spec,
		Workers:   opts.Workers,
	})
}

// runNSweepCell measures one group size.
func runNSweepCell(opts NSweepOptions, n int) (NSweepRow, error) {
	row := NSweepRow{N: n, Trials: opts.Trials}

	// Throughput under benign load: any alarm here is a false positive.
	spec := nSweepSpec(n, 0)
	row.Spec = spec.String()
	h, err := startNSweepGroup(opts, spec)
	if err != nil {
		return row, err
	}
	m, err := webbench.Run(h.Net, h.Port, webbench.Options{
		Engines:           opts.Engines,
		RequestsPerEngine: opts.RequestsPerEngine,
	})
	if err != nil {
		_, _ = h.Stop()
		return row, fmt.Errorf("load: %w", err)
	}
	res, err := h.Stop()
	if err != nil {
		return row, err
	}
	if res.Alarm != nil {
		return row, fmt.Errorf("false alarm under benign load: %+v", res.Alarm)
	}
	if m.Errors > 0 {
		return row, fmt.Errorf("%d request errors under benign load", m.Errors)
	}
	row.Load = m

	// Detection trials: each on a fresh group with a fresh spec.
	for trial := 1; trial <= opts.Trials; trial++ {
		detected, leaked, err := runNSweepTrial(opts, nSweepSpec(n, trial))
		if err != nil {
			return row, fmt.Errorf("trial %d: %w", trial, err)
		}
		if detected {
			row.Detections++
		}
		if leaked {
			row.Leaks++
		}
	}
	return row, nil
}

// runNSweepTrial mounts the two-step UID-forging attack on one fresh
// group and reports whether the monitor detected it before any secret
// disclosure.
func runNSweepTrial(opts NSweepOptions, spec *reexpress.Spec) (detected, leaked bool, err error) {
	h, err := startNSweepGroup(opts, spec)
	if err != nil {
		return false, false, err
	}
	client := h.Client()
	if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		_, _ = h.Stop()
		return false, false, fmt.Errorf("overflow: %w", err)
	}
	// Trigger the first use of the forged UID. On detection the monitor
	// kills the group and the connection drops with no response. With
	// worker lanes the trigger must reach the lane the overflow
	// corrupted (siblings serve it as a benign 403), so keep probing
	// until the kill — or a disclosure/deadline on a failed detection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, err := client.Get("/private/secret.html")
		if err == nil && code == 200 && httpd.ContainsSecret(body) {
			leaked = true
		}
		if err != nil || leaked || time.Now().After(deadline) {
			break
		}
	}
	res, err := h.Stop()
	if err != nil {
		return false, leaked, err
	}
	detected = res.Alarm != nil && res.Alarm.Reason == nvkernel.ReasonUIDDivergence
	return detected, leaked, nil
}

// Fprint renders the sweep as a table.
func (r *NSweepReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "N-sweep: detection and throughput vs variant count (%d engines x %d requests, %d trials/N)\n",
		r.Opts.Engines, r.Opts.RequestsPerEngine, r.Opts.Trials)
	fmt.Fprintf(w, "%-4s %-10s %-7s %12s %10s %10s\n",
		"N", "detection", "leaks", "KB/s", "mean ms", "p99 ms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-4d %2d/%-7d %-7d %12.1f %10.3f %10.3f\n",
			row.N, row.Detections, row.Trials, row.Leaks,
			row.Load.ThroughputKBps(),
			float64(row.Load.MeanLatency().Microseconds())/1000,
			float64(row.Load.P99Latency.Microseconds())/1000)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  N=%d spec: %s\n", row.N, row.Spec)
	}
}
