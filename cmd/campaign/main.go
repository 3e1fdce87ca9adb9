// Command campaign runs the chaos campaign: the expanded attack corpus
// swept against seeded fault plans across group size, worker-lane
// count and variation stack, emitting a deterministic JSON matrix of
// detection / false-alarm / throughput-retained results on stdout. The
// default matrix ends with the K-of-N cells (entries with "k" set):
// the variant crash and stall against 2-of-3 groups, which must survive
// and still detect forge-root-uid, and against 2-of-2 groups, which
// must die quorum-lost. The same -seed reproduces byte-identical
// output, at any GOMAXPROCS and under -race, so any finding is a
// replayable regression test. Pool topologies (fleets and meshes, and
// attacks on them) run in meshbench -chaos.
//
//	go run ./cmd/campaign -seed 1 -check
//	go run ./cmd/campaign -seed 1 -fault-only -check   # transparency matrix
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
	"nvariant/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed; the same seed reproduces byte-identical output")
		requests  = flag.Int("requests", 0, "benign requests per cell (0 = config default)")
		ns        = flag.String("n", "", "comma-separated group sizes to sweep (empty = config default)")
		workers   = flag.String("workers", "", "comma-separated worker-lane counts (empty = config default)")
		stacks    = flag.String("stacks", "", "comma-separated variation stacks: uid+addr+files, addr+files")
		attacks   = flag.String("attacks", "", "comma-separated scenario names; 'none' is the benign cell (empty = none + full corpus)")
		faults    = flag.String("faults", "", "comma-separated fault plans; 'all' = every standard plan a group runs (empty = config default)")
		faultOnly = flag.Bool("fault-only", false, "transparency campaign: transparent faults only, no attacks, N in {2,3,5}, W in {1,4}")
		noSweep   = flag.Bool("no-bytesweep", false, "skip the word-level mask-byte brute force")
		check     = flag.Bool("check", false, "exit non-zero if the matrix violates the detection / false-alarm contract")
		human     = flag.Bool("v", false, "also print the human-readable summary to stderr")
		opsAddr   = flag.String("ops", "", "serve /metrics and pprof on this host address while the campaign runs (never alters the JSON)")
	)
	flag.Parse()

	cfg := chaos.DefaultConfig(*seed)
	if *faultOnly {
		cfg = chaos.FaultOnlyConfig(*seed)
	}
	if *requests > 0 {
		cfg.Requests = *requests
	}
	var err error
	if cfg.Ns, err = overrideInts(cfg.Ns, *ns); err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	if cfg.Workers, err = overrideInts(cfg.Workers, *workers); err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	if *stacks != "" {
		cfg.Stacks = splitList(*stacks)
	}
	if *attacks != "" {
		cfg.Attacks = cfg.Attacks[:0]
		for _, name := range splitList(*attacks) {
			if name == "none" {
				cfg.Attacks = append(cfg.Attacks, chaos.NoAttack())
				continue
			}
			sc, err := attack.ScenarioByName(name)
			if err != nil {
				return err
			}
			cfg.Attacks = append(cfg.Attacks, sc)
		}
	}
	if *faults == "all" {
		cfg.Faults = cfg.Faults[:0]
		for _, p := range chaos.Plans() {
			if !p.PoolOnly() {
				cfg.Faults = append(cfg.Faults, p)
			}
		}
	} else if *faults != "" {
		cfg.Faults = cfg.Faults[:0]
		for _, name := range splitList(*faults) {
			p, err := chaos.PlanByName(name)
			if err != nil {
				return err
			}
			cfg.Faults = append(cfg.Faults, p)
		}
	}
	if *noSweep {
		cfg.ByteSweep = false
	}

	if *opsAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.StartServer(*opsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: ops server on http://%s (/metrics, /debug/pprof)\n", srv.Addr)
		cfg.Obs = reg
	}

	res, err := chaos.Run(cfg)
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
		if violations := res.Check(); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "violation:", v)
			}
			return fmt.Errorf("%d contract violations", len(violations))
		}
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// overrideInts parses a comma-separated int list, keeping def when the
// flag is empty.
func overrideInts(def []int, s string) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, tok := range splitList(s) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
