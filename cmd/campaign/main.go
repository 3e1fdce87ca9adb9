// Command campaign runs the seeded chaos campaigns and emits each one's
// deterministic JSON matrix on stdout.
//
// Without -mesh it runs the single-group matrix: the expanded attack
// corpus swept against seeded fault plans across group size,
// worker-lane count and variation stack, reporting detection,
// false-alarm and throughput-retained results. The default matrix ends
// with the K-of-N cells (entries with "k" set): the variant crash and
// stall against 2-of-3 groups, which must survive and still detect
// forge-root-uid, and against 2-of-2 groups, which must die
// quorum-lost.
//
// With -mesh it runs the pool matrix (P × rotation × fault plan ×
// attack): routing, retry-with-backoff, health scoring, rotation,
// exposure windows, fault injection and quorum evictions in sharded
// meshes. Narrowing flags (-pools, -rotations, -faults, -attacks)
// filter the sweep without changing the surviving cells' bytes: cell
// seeds derive from cell labels, not sweep position.
//
// The same -seed reproduces byte-identical output, at any GOMAXPROCS
// and under -race, so any finding is a replayable regression test.
//
//	go run ./cmd/campaign -seed 1 -check
//	go run ./cmd/campaign -seed 1 -fault-only -check   # transparency matrix
//	go run ./cmd/campaign -mesh -seed 1 -check         # pool matrix
//	go run ./cmd/campaign -mesh -seed 1 -faults none -pools 1,2,4 -check
//	                                                   # rotation exposure table
//	go run ./cmd/campaign -mesh -seed 1 -faults net-mixed -attacks forge-uid \
//	    -pools 2 -rotations on                         # replay one pool cell
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
	"nvariant/internal/mesh"
	"nvariant/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// invocation is a parsed command line: the group matrix's config, or
// with -mesh the pool matrix's.
type invocation struct {
	group   chaos.Config
	mesh    *mesh.ChaosCampaignConfig
	check   bool
	human   bool
	opsAddr string
}

// groupOnlyFlags and meshOnlyFlags name the flags that apply to one
// matrix only; setting one in the other mode is an error.
var (
	groupOnlyFlags = map[string]bool{"n": true, "workers": true, "stacks": true, "fault-only": true, "no-bytesweep": true}
	meshOnlyFlags  = map[string]bool{"pools": true, "rotations": true}
)

// parseArgs turns the command line into the campaign to run.
func parseArgs(args []string) (invocation, error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	var (
		meshMode  = fs.Bool("mesh", false, "run the pool matrix (mesh × chaos) instead of the single-group matrix")
		seed      = fs.Int64("seed", 1, "campaign seed; the same seed reproduces byte-identical output")
		requests  = fs.Int("requests", 0, "benign requests per cell (0 = config default)")
		ns        = fs.String("n", "", "group: comma-separated group sizes to sweep (empty = config default)")
		workers   = fs.String("workers", "", "group: comma-separated worker-lane counts (empty = config default)")
		stacks    = fs.String("stacks", "", "group: comma-separated variation stacks: uid+addr+files, addr+files")
		attacks   = fs.String("attacks", "", "comma-separated attacks; 'none' is the benign cell (group: scenario names, empty = none + full corpus; mesh: none, forge-uid)")
		faults    = fs.String("faults", "", "comma-separated fault plans; 'all' = every standard plan a group runs (empty = config default)")
		faultOnly = fs.Bool("fault-only", false, "group: transparency campaign: transparent faults only, no attacks, N in {2,3,5}, W in {1,4}")
		noSweep   = fs.Bool("no-bytesweep", false, "group: skip the word-level mask-byte brute force")
		pools     = fs.String("pools", "", "mesh: comma-separated pool counts to sweep (empty = campaign default)")
		rotations = fs.String("rotations", "", "mesh: rotation settings to sweep: on, off, or on,off (empty = both)")
		check     = fs.Bool("check", false, "exit non-zero if the matrix violates its contract")
		human     = fs.Bool("v", false, "also print the human-readable summary to stderr")
		opsAddr   = fs.String("ops", "", "serve /metrics and pprof on this host address while the campaign runs (never alters the JSON)")
	)
	if err := fs.Parse(args); err != nil {
		return invocation{}, err
	}
	if fs.NArg() > 0 {
		return invocation{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var modeErr error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case modeErr != nil:
		case *meshMode && groupOnlyFlags[f.Name]:
			modeErr = fmt.Errorf("-%s applies to the group matrix, not -mesh", f.Name)
		case !*meshMode && meshOnlyFlags[f.Name]:
			modeErr = fmt.Errorf("-%s applies to the pool matrix only (needs -mesh)", f.Name)
		}
	})
	if modeErr != nil {
		return invocation{}, modeErr
	}
	inv := invocation{check: *check, human: *human, opsAddr: *opsAddr}
	plans, err := parsePlans(*faults)
	if err != nil {
		return invocation{}, err
	}

	if *meshMode {
		cfg := mesh.ChaosCampaignConfig{Seed: *seed, Requests: *requests, Faults: plans, Attacks: splitList(*attacks)}
		if cfg.Pools, err = overrideInts(nil, *pools); err != nil {
			return invocation{}, fmt.Errorf("-pools: %w", err)
		}
		if cfg.Rotations, err = parseRotations(*rotations); err != nil {
			return invocation{}, fmt.Errorf("-rotations: %w", err)
		}
		inv.mesh = &cfg
		return inv, nil
	}

	cfg := chaos.DefaultConfig(*seed)
	if *faultOnly {
		cfg = chaos.FaultOnlyConfig(*seed)
	}
	if *requests > 0 {
		cfg.Requests = *requests
	}
	if cfg.Ns, err = overrideInts(cfg.Ns, *ns); err != nil {
		return invocation{}, fmt.Errorf("-n: %w", err)
	}
	if cfg.Workers, err = overrideInts(cfg.Workers, *workers); err != nil {
		return invocation{}, fmt.Errorf("-workers: %w", err)
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
				return invocation{}, err
			}
			cfg.Attacks = append(cfg.Attacks, sc)
		}
	}
	if *faults != "" {
		cfg.Faults = plans
	}
	if *noSweep {
		cfg.ByteSweep = false
	}
	inv.group = cfg
	return inv, nil
}

// campaignResult is what both matrices report.
type campaignResult interface {
	JSON() ([]byte, error)
	Fprint(w io.Writer)
	Check() []string
}

// run parses args, runs the campaign they name and writes its JSON
// matrix to stdout; the summary and any violations go to stderr.
func run(args []string, stdout io.Writer) error {
	inv, err := parseArgs(args)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if inv.opsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.StartServer(inv.opsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: ops server on http://%s (/metrics, /debug/pprof)\n", srv.Addr)
	}

	var res campaignResult
	if inv.mesh != nil {
		inv.mesh.Obs = reg
		res, err = mesh.RunChaosCampaign(*inv.mesh)
	} else {
		inv.group.Obs = reg
		res, err = chaos.Run(inv.group)
	}
	if err != nil {
		return err
	}
	out, err := res.JSON()
	if err != nil {
		return err
	}
	if _, err := stdout.Write(out); err != nil {
		return err
	}
	if inv.human {
		res.Fprint(os.Stderr)
	}
	if inv.check {
		if violations := res.Check(); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "violation:", v)
			}
			return fmt.Errorf("%d contract violations", len(violations))
		}
	}
	return nil
}

// parsePlans resolves the -faults value; nil keeps the config default.
func parsePlans(s string) ([]chaos.Plan, error) {
	if s == "all" {
		var out []chaos.Plan
		for _, p := range chaos.Plans() {
			if !p.PoolOnly() {
				out = append(out, p)
			}
		}
		return out, nil
	}
	var out []chaos.Plan
	for _, name := range splitList(s) {
		p, err := chaos.PlanByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseRotations parses the -rotations list; empty keeps the default.
func parseRotations(s string) ([]bool, error) {
	var out []bool
	for _, tok := range splitList(s) {
		switch tok {
		case "on":
			out = append(out, true)
		case "off":
			out = append(out, false)
		default:
			return nil, fmt.Errorf("bad rotation setting %q (on, off)", tok)
		}
	}
	return out, nil
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
