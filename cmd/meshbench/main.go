// Command meshbench exercises the sharded mesh: a router-throughput
// sweep across pool counts with and without moving-target rotation,
// and the unified mesh×chaos campaign — routing, retry-with-backoff,
// health scoring, rotation, exposure windows, fault injection and
// quorum evictions measured in one deterministic JSON matrix.
//
//	go run ./cmd/meshbench                      # throughput sweep
//	go run ./cmd/meshbench -rotate-every 8      # sweep under rotation
//	go run ./cmd/meshbench -chaos -check        # unified mesh×chaos campaign, gated
//	go run ./cmd/meshbench -chaos -fault none -pools 1,2,4 -check
//	                                            # rotation exposure table, gated
//	go run ./cmd/meshbench -chaos -fault net-mixed -attack forge-uid \
//	    -pools 2 -rotations on                  # replay one cell of the matrix
//
// Campaign output is byte-identical per -seed (the CI mesh-chaos-smoke
// job replays it and compares), so any finding is a replayable
// regression test. Narrowing flags (-fault, -attack,
// -pools, -rotations) filter the sweep without changing the surviving
// cells' bytes: cell seeds derive from cell labels, not sweep
// position.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvariant/internal/chaos"
	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/obs"
	"nvariant/internal/webbench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		chaosMode   = flag.Bool("chaos", false, "run the unified mesh×chaos campaign and emit its JSON matrix on stdout")
		faultFlag   = flag.String("fault", "", "chaos: narrow the sweep to these comma-separated fault plans (default: campaign's standard set)")
		attackFlag  = flag.String("attack", "", "chaos: narrow the sweep to these comma-separated attack modes (none, forge-uid)")
		rotFlag     = flag.String("rotations", "", "chaos: narrow the sweep to rotation settings: on, off, or on,off")
		retryBudget = flag.Int("retry-budget", 0, "chaos: per-session retry budget (0 = default)")
		seed        = flag.Int64("seed", 1, "seed; the same seed reproduces byte-identical campaign output")
		requests    = flag.Int("requests", 0, "chaos: benign requests per cell (0 = default); sweep: requests per session (0 = 40)")
		poolsFlag   = flag.String("pools", "1,2,4", "comma-separated pool counts to sweep")
		groups      = flag.Int("groups", 2, "groups per pool")
		rotateEvery = flag.Uint64("rotate-every", 0, "sweep: rotate every N dispatches (0 = off); the -chaos cadence uses -campaign-rotate")
		campRotate  = flag.Uint64("campaign-rotate", 0, "chaos: rotation cadence in mesh ticks (0 = default)")
		probes      = flag.Int("probes", 0, "chaos: forged-UID probes per attack cell (0 = default)")
		policyFlag  = flag.String("policy", "hash", "routing policy: hash or affinity")
		sessions    = flag.Int("sessions", 8, "sweep: concurrent sticky sessions per run")
		check       = flag.Bool("check", false, "chaos: exit non-zero on contract violations")
		human       = flag.Bool("v", false, "chaos: also print the human-readable summary to stderr")
		opsAddr     = flag.String("ops", "", "serve /metrics and the merged /audit tail on this host address while running")
	)
	flag.Parse()

	policy, err := parsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	pools, err := parseInts(*poolsFlag)
	if err != nil {
		return fmt.Errorf("-pools: %w", err)
	}

	if *chaosMode {
		cfg := mesh.ChaosCampaignConfig{
			Seed:        *seed,
			Requests:    *requests,
			Groups:      *groups,
			RotateEvery: *campRotate,
			Probes:      *probes,
			RetryBudget: *retryBudget,
			Policy:      policy,
		}
		// -pools doubles as a narrowing flag here: only an explicit value
		// overrides the campaign's own default sweep.
		if flagWasSet("pools") {
			cfg.Pools = pools
		}
		if *rotFlag != "" {
			rot, err := parseRotations(*rotFlag)
			if err != nil {
				return fmt.Errorf("-rotations: %w", err)
			}
			cfg.Rotations = rot
		}
		if *faultFlag != "" {
			plans, err := parsePlans(*faultFlag)
			if err != nil {
				return fmt.Errorf("-fault: %w", err)
			}
			cfg.Faults = plans
		}
		if *attackFlag != "" {
			cfg.Attacks = splitList(*attackFlag)
		}
		if *opsAddr != "" {
			reg := obs.NewRegistry()
			srv, err := obs.StartServer(*opsAddr, reg, nil)
			if err != nil {
				return fmt.Errorf("-ops: %w", err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "meshbench: ops server on http://%s\n", srv.Addr)
			cfg.Obs = reg
		}
		res, err := mesh.RunChaosCampaign(cfg)
		if err != nil {
			return err
		}
		out, err := res.JSON()
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(out); err != nil {
			return err
		}
		if *human {
			res.Fprint(os.Stderr)
		}
		if *check {
			if v := res.Check(); len(v) > 0 {
				for _, violation := range v {
					fmt.Fprintln(os.Stderr, "violation:", violation)
				}
				return fmt.Errorf("%d contract violations", len(v))
			}
		}
		return nil
	}

	return sweep(pools, policy, *groups, *sessions, *requests, *rotateEvery, *seed, *opsAddr)
}

// sweep measures router dispatch throughput and latency per pool
// count, with optional rotation churning underneath the load.
func sweep(pools []int, policy mesh.RouterPolicy, groups, sessions, perSession int, rotateEvery uint64, seed int64, opsAddr string) error {
	if perSession <= 0 {
		perSession = 40
	}
	var reg *obs.Registry
	if opsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.StartServer(opsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "meshbench: ops server on http://%s\n", srv.Addr)
	}
	rotating := "off"
	if rotateEvery > 0 {
		rotating = fmt.Sprintf("every %d dispatches", rotateEvery)
	}
	fmt.Printf("mesh sweep: policy=%s groups/pool=%d sessions=%d requests/session=%d rotation=%s\n",
		policy, groups, sessions, perSession, rotating)
	fmt.Printf("%-6s %10s %10s %12s %12s %10s %10s\n",
		"pools", "req/s", "errors", "p50", "p99", "rotations", "shed")

	for _, p := range pools {
		m, err := mesh.New(mesh.Options{
			Pools:       p,
			Policy:      policy,
			RotateEvery: rotateEvery,
			Seed:        seed,
			Obs:         reg,
			Fleet:       fleet.Options{Groups: groups},
		})
		if err != nil {
			return fmt.Errorf("pools=%d: %w", p, err)
		}
		req := httpd.AppendRequest(nil, "/index.html")
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			lats    []time.Duration
			errorsN int
		)
		start := time.Now()
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := m.Session(fmt.Sprintf("bench-%d", s))
				local := make([]time.Duration, 0, perSession)
				fails := 0
				for i := 0; i < perSession; i++ {
					t0 := time.Now()
					code, _, err := sess.Fetch(req)
					if err != nil || code != 200 {
						fails++
						continue
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, local...)
				errorsN += fails
				mu.Unlock()
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats, err := m.Stop()
		if err != nil {
			return fmt.Errorf("pools=%d stop: %w", p, err)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rate := float64(len(lats)) / elapsed.Seconds()
		fmt.Printf("%-6d %10.0f %10d %12v %12v %10d %10d\n",
			p, rate, errorsN,
			webbench.Percentile(lats, 0.50).Round(time.Microsecond),
			webbench.Percentile(lats, 0.99).Round(time.Microsecond),
			stats.Rotations, stats.Shed)
	}
	return nil
}

// flagWasSet reports whether the named flag appeared on the command
// line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func parsePlans(s string) ([]chaos.Plan, error) {
	var out []chaos.Plan
	for _, name := range splitList(s) {
		p, err := chaos.PlanByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty plan list")
	}
	return out, nil
}

func parseRotations(s string) ([]bool, error) {
	var out []bool
	for _, tok := range splitList(s) {
		switch tok {
		case "on", "true":
			out = append(out, true)
		case "off", "false":
			out = append(out, false)
		default:
			return nil, fmt.Errorf("bad rotation setting %q (on, off)", tok)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rotation list")
	}
	return out, nil
}

func parsePolicy(s string) (mesh.RouterPolicy, error) {
	switch s {
	case "hash":
		return mesh.HashRouting, nil
	case "affinity":
		return mesh.AffinityRouting, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (hash, affinity)", s)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
