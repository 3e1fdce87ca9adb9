// Command fleetbench measures how a fleet of N-variant server groups
// scales: it sweeps pool size × webbench engine count and prints a
// scaling table (throughput, mean and tail latency, errors). Groups are
// deployed from generated DiversitySpecs: -variants sets the per-group
// N and -stack the variation stack. Availability and detection under
// attack are measured, seed-replayably, by the mesh×chaos campaign:
// meshbench -chaos -pools 1 -fault none -attack forge-uid.
//
// Usage:
//
//	fleetbench                      # sweep pools 1,2,4,8 × engines 1,15
//	fleetbench -pools 2,4 -engines 15 -requests 30
//	fleetbench -policy least-loaded # balancing policy
//	fleetbench -variants 3          # pools of 3-variant groups
//	fleetbench -variants 2-4        # each group draws N from [2,4]
//	fleetbench -stack uid,files     # variation stack per group spec
//	fleetbench -json                # machine-readable sweep (BENCH_fleet.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/webbench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

// cell is one sweep measurement in the -json output.
type cell struct {
	Pool     int     `json:"pool"`
	Engines  int     `json:"engines"`
	Requests int     `json:"requests"`
	KBps     float64 `json:"kbps"`
	MeanMs   float64 `json:"mean_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Errors   int     `json:"errors"`
}

// report is the -json document (the CI perf-trajectory artifact).
type report struct {
	Kind     string `json:"kind"`
	Policy   string `json:"policy"`
	Variants string `json:"variants"`
	Stack    string `json:"stack"`
	Work     int    `json:"work"`
	Workers  int    `json:"workers,omitempty"`
	Cells    []cell `json:"cells"`
}

func run() error {
	pools := flag.String("pools", "1,2,4,8", "comma-separated pool sizes to sweep")
	engines := flag.String("engines", "1,15", "comma-separated engine counts to sweep")
	requests := flag.Int("requests", 25, "requests per engine")
	workFactor := flag.Int("work", 400, "per-request CPU work factor")
	latency := flag.Duration("latency", 0, "one-way wire latency")
	policyName := flag.String("policy", "round-robin", "balancing policy: round-robin or least-loaded")
	variantsFlag := flag.String("variants", "2", "per-group variant count N, or a range like 2-4")
	workers := flag.Int("workers", 0, "per-group prefork worker-lane count (0 = serial groups)")
	stackFlag := flag.String("stack", "", "variation stack per group spec (e.g. uid,addr,files; default: the full §4 stack)")
	jsonOut := flag.Bool("json", false, "emit the sweep as JSON on stdout")
	opsAddr := flag.String("ops", "", "serve /metrics, /audit and pprof on this host address (e.g. 127.0.0.1:9090)")
	linger := flag.Duration("linger", 0, "after the sweep, keep an instrumented fleet under trickle load for this long (requires -ops)")
	flag.Parse()

	policy, err := parsePolicy(*policyName)
	if err != nil {
		return err
	}
	minVariants, maxVariants, err := parseVariants(*variantsFlag)
	if err != nil {
		return fmt.Errorf("-variants: %w", err)
	}
	var stack []reexpress.LayerKind
	if *stackFlag != "" {
		if stack, err = reexpress.ParseStack(*stackFlag); err != nil {
			return err
		}
	}

	var (
		reg *obs.Registry
		// audit merges every cell fleet's recovery log into one
		// vtime-ordered /audit tail, so an operator watching the sweep
		// sees the whole history, not just the newest fleet's.
		audit *fleet.MultiAudit
	)
	if *opsAddr != "" {
		reg = obs.NewRegistry()
		audit = fleet.NewMultiAudit()
		srv, err := obs.StartServer(*opsAddr, reg, audit)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "fleetbench: ops server on http://%s (/metrics, /audit, /debug/pprof)\n", srv.Addr)
	} else if *linger > 0 {
		return fmt.Errorf("-linger requires -ops")
	}

	poolSizes, err := parseInts(*pools)
	if err != nil {
		return fmt.Errorf("-pools: %w", err)
	}
	engineCounts, err := parseInts(*engines)
	if err != nil {
		return fmt.Errorf("-engines: %w", err)
	}

	serverOpts := httpd.DefaultOptions()
	serverOpts.WorkFactor = *workFactor

	fleetOpts := fleet.Options{
		Policy:      policy,
		Latency:     *latency,
		Server:      serverOpts,
		Variants:    minVariants,
		MaxVariants: maxVariants,
		Stack:       stack,
		Workers:     *workers,
		Obs:         reg,
	}

	rep := report{
		Kind:     "fleetbench",
		Policy:   policy.String(),
		Variants: *variantsFlag,
		Stack:    *stackFlag,
		Work:     *workFactor,
		Workers:  *workers,
	}
	if !*jsonOut {
		fmt.Printf("Fleet scaling sweep (policy %s, N=%s, W=%d, %d requests/engine, work factor %d, latency %v)\n",
			policy, *variantsFlag, *workers, *requests, *workFactor, *latency)
		fmt.Printf("%-8s %-9s %12s %10s %10s %10s %8s\n",
			"pool", "engines", "KB/s", "mean ms", "p95 ms", "p99 ms", "errors")
	}
	for _, groups := range poolSizes {
		for _, eng := range engineCounts {
			m, err := measure(groups, eng, *requests, fleetOpts, audit, fmt.Sprintf("pool%dx%d", groups, eng))
			if err != nil {
				return fmt.Errorf("pool %d engines %d: %w", groups, eng, err)
			}
			if *jsonOut {
				rep.Cells = append(rep.Cells, cell{
					Pool: groups, Engines: eng, Requests: m.Requests,
					KBps:   m.ThroughputKBps(),
					MeanMs: ms(m.MeanLatency()), P95Ms: ms(m.P95Latency), P99Ms: ms(m.P99Latency),
					Errors: m.Errors,
				})
				continue
			}
			fmt.Printf("%-8d %-9d %12.1f %10.3f %10.3f %10.3f %8d\n",
				groups, eng, m.ThroughputKBps(),
				ms(m.MeanLatency()), ms(m.P95Latency), ms(m.P99Latency), m.Errors)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	if *linger > 0 {
		return lingerFleet(poolSizes[len(poolSizes)-1], *linger, fleetOpts, audit)
	}
	return nil
}

// lingerFleet keeps one instrumented fleet alive under a trickle of
// benign load so the ops endpoints can be scraped live (the CI
// ops-smoke job polls /metrics against this window).
func lingerFleet(groups int, d time.Duration, opts fleet.Options, audit *fleet.MultiAudit) error {
	opts.Groups = groups
	f, err := fleet.New(opts)
	if err != nil {
		return err
	}
	if audit != nil {
		audit.Attach("linger", f.Audit())
	}
	fmt.Fprintf(os.Stderr, "fleetbench: lingering %v with a %d-group fleet under trickle load\n", d, groups)
	client := f.Client()
	req := httpd.AppendRequest(nil, "/index.html")
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if _, _, err := client.Fetch(req); err != nil {
			_, _ = f.Stop()
			return fmt.Errorf("linger load: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, err = f.Stop()
	return err
}

// measure runs one cell of the sweep on a fresh fleet.
func measure(groups, engines, requests int, opts fleet.Options, audit *fleet.MultiAudit, name string) (webbench.Metrics, error) {
	opts.Groups = groups
	f, err := fleet.New(opts)
	if err != nil {
		return webbench.Metrics{}, err
	}
	if audit != nil {
		audit.Attach(name, f.Audit())
	}
	m, err := webbench.Run(f.Net(), f.Port(), webbench.Options{
		Engines:           engines,
		RequestsPerEngine: requests,
	})
	if err != nil {
		_, _ = f.Stop()
		return m, err
	}
	stats, err := f.Stop()
	if err != nil {
		return m, err
	}
	if stats.Detections != 0 {
		return m, fmt.Errorf("false detection under benign load: %+v", stats)
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func parsePolicy(name string) (fleet.Policy, error) {
	switch name {
	case "round-robin", "rr":
		return fleet.RoundRobin, nil
	case "least-loaded", "ll":
		return fleet.LeastLoaded, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want round-robin or least-loaded)", name)
	}
}

// parseVariants parses "3" or a range like "2-4" into (min, max); max
// is 0 for a fixed N.
func parseVariants(s string) (int, int, error) {
	lo, hi, ok := strings.Cut(s, "-")
	n, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil || n < 2 {
		return 0, 0, fmt.Errorf("bad variant count %q (want an integer >= 2)", lo)
	}
	if !ok {
		return n, 0, nil
	}
	m, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil || m < n {
		return 0, 0, fmt.Errorf("bad variant range %q", s)
	}
	return n, m, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
