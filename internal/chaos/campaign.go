package chaos

// The campaign runner: sweep the expanded attack corpus against every
// fault plan across group size N, worker-lane count W, and variation
// stack, from one seed, and emit a deterministic JSON matrix of
// detection / false-alarm / throughput-retained results.
//
// Byte-identical replay is a hard requirement (a chaos finding must be
// a replayable regression test), so the matrix records only values
// that are functions of the seed: request outcome counts from the
// serialized benign phases, detection and leak booleans, and settled
// eviction counts. Wall-clock quantities never enter the output.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"nvariant/internal/attack"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Variation-stack names a campaign sweeps.
const (
	// StackFull is the paper's §4 deployment: UID variation plus
	// address partitioning plus unshared files (configuration 4).
	StackFull = "uid+addr+files"
	// StackBaseline is the diversity baseline without data
	// reexpression (configuration 3): it shows what the UID layer
	// buys — forged-UID attacks leak here.
	StackBaseline = "addr+files"
)

// Config sizes a campaign: the runner crosses Attacks × Faults ×
// Stacks × Ns × Workers into one group cell each.
type Config struct {
	// Seed drives every decision in the campaign; the same seed
	// reproduces byte-identical output.
	Seed int64
	// Requests is the serialized benign-request count per cell.
	Requests int
	// TriggerBudget bounds first-use trigger probes per attack payload
	// (scaled by W; the corrupted lane is hit by accept contention).
	TriggerBudget int
	// Ns lists the group sizes to sweep.
	Ns []int
	// Workers lists the prefork worker-lane counts to sweep.
	Workers []int
	// Stacks lists the variation stacks to sweep (StackFull,
	// StackBaseline).
	Stacks []string
	// Attacks lists the scripted scenarios; a Scenario with a nil
	// Build (name "none") is the benign cell measuring pure fault
	// transparency.
	Attacks []attack.Scenario
	// Faults lists the fault plans. Pool-only plans (Plan.PoolOnly)
	// are rejected: a single group has no pool to restart, and the
	// mesh×chaos campaign runs them.
	Faults []Plan
	// ByteSweep includes the word-level exhaustive mask-byte brute
	// force per N.
	ByteSweep bool
	// Quorum, when K ≥ 1, adds the quorum section: the variant-fault
	// plans (excluded from the headline detection rate in unanimous
	// mode) run as quorum-survival cells against K-of-(K+1) groups —
	// gating availability across the fault, the eviction record, and
	// post-fault divergence detection among the live variants — plus
	// quorum-lost cells at N = K.
	Quorum int
	// Obs, when set, instruments every cell's kernel, network and
	// server on the registry. Metrics record wall-clock data outside
	// the deterministic matrix: output JSON is byte-identical with and
	// without Obs (TestCampaignInstrumentationPreservesJSON).
	Obs *obs.Registry
}

// NoAttack is the benign scenario: a cell with no attacker, measuring
// fault transparency and the false-alarm side.
func NoAttack() attack.Scenario { return attack.Scenario{Name: "none"} }

// DefaultConfig is the standard campaign at the given seed: the full
// corpus and fault-plan crossing over N ∈ {2,3}, W ∈ {1,2}, both
// stacks, plus byte sweeps and the quorum section.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Requests:      10,
		TriggerBudget: 16,
		Ns:            []int{2, 3},
		Workers:       []int{1, 2},
		Stacks:        []string{StackFull, StackBaseline},
		Attacks:       append([]attack.Scenario{NoAttack()}, attack.Corpus()...),
		Faults: []Plan{
			mustPlan("none"), mustPlan("net-mixed"), mustPlan("slow-syscalls"),
			mustPlan("variant-crash"),
		},
		ByteSweep: true,
		Quorum:    QuorumK,
	}
}

// FaultOnlyConfig is the no-attack transparency campaign: every
// transparent fault plan against healthy full-stack groups at
// N ∈ {2,3,5}, W ∈ {1,4}. Its matrix must show zero alarms.
func FaultOnlyConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Requests:      10,
		TriggerBudget: 16,
		Ns:            []int{2, 3, 5},
		Workers:       []int{1, 4},
		Stacks:        []string{StackFull},
		Attacks:       []attack.Scenario{NoAttack()},
		Faults:        TransparentPlans(),
	}
}

func mustPlan(name string) Plan {
	p, err := PlanByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Cell is one campaign matrix entry: one attack scenario against one
// group deployment under one fault plan.
type Cell struct {
	Attack  string `json:"attack"`
	Fault   string `json:"fault"`
	Stack   string `json:"stack"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`

	// ExpectDetect: a correctly deployed UID stack must alarm on this
	// scenario.
	ExpectDetect bool `json:"expect_detect"`
	// ExpectFaultAlarm: the fault plan itself must be detected
	// (crash-class faults).
	ExpectFaultAlarm bool `json:"expect_fault_alarm"`

	// BenignOK / BenignErrs count the serialized benign phase's
	// request outcomes (the deterministic throughput measure).
	BenignOK   int `json:"benign_ok"`
	BenignErrs int `json:"benign_errs"`

	Detected    bool   `json:"detected"`
	AlarmReason string `json:"alarm_reason,omitempty"`
	Leaked      bool   `json:"leaked"`

	MissedDetection bool `json:"missed_detection"`
	FalseAlarm      bool `json:"false_alarm"`
}

// ByteSweepRow is one word-level exhaustive brute-force result.
type ByteSweepRow struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Trials    int    `json:"trials"`
	Detected  int    `json:"detected"`
	Corrupted int    `json:"corrupted"`
	Harmless  int    `json:"harmless"`
}

// FaultSummary aggregates one fault plan across all its group cells.
type FaultSummary struct {
	Fault      string `json:"fault"`
	Cells      int    `json:"cells"`
	BenignOK   int    `json:"benign_ok"`
	BenignErrs int    `json:"benign_errs"`
	// ThroughputRetained is this plan's benign-request completions
	// over the "none" plan's — the deterministic availability ratio.
	ThroughputRetained float64 `json:"throughput_retained"`
	FalseAlarms        int     `json:"false_alarms"`
}

// Summary is the campaign headline. The quorum probe detections fold
// into ExpectedDetections / Detections: in quorum mode a crash-plan
// cell *does* count toward the headline rate again — what it must
// detect is the divergence probe among the live variants, not the
// fault itself. The Quorum* fields are zero (and omitted from JSON)
// when the campaign has no quorum section.
type Summary struct {
	Cells              int            `json:"cells"`
	ExpectedDetections int            `json:"expected_detections"`
	Detections         int            `json:"detections"`
	MissedDetections   int            `json:"missed_detections"`
	FalseAlarms        int            `json:"false_alarms"`
	DefendedLeaks      int            `json:"defended_leaks"`
	UndefendedLeaks    int            `json:"undefended_leaks"`
	DetectionRate      float64        `json:"detection_rate"`
	QuorumCells        int            `json:"quorum_cells,omitempty"`
	QuorumSurvived     int            `json:"quorum_survived,omitempty"`
	QuorumEvictions    int            `json:"quorum_evictions,omitempty"`
	PerFault           []FaultSummary `json:"per_fault"`
}

// Result is the campaign's full matrix. Marshalling it (JSON) is
// byte-identical across runs with the same Config.
type Result struct {
	Seed       int64          `json:"seed"`
	Requests   int            `json:"requests"`
	Cells      []Cell         `json:"cells"`
	ByteSweeps []ByteSweepRow `json:"byte_sweeps,omitempty"`
	Quorum     []QuorumCell   `json:"quorum,omitempty"`
	Summary    Summary        `json:"summary"`
}

// JSON renders the matrix deterministically.
func (r *Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Check returns the list of contract violations in the matrix: missed
// detections, false alarms, leaks from defended (UID-stack) cells,
// undetected word-level corruptions, and quorum cells that did not
// survive, evict, or detect as required. An empty list is the passing
// campaign.
func (r *Result) Check() []string {
	var v []string
	for _, c := range r.Cells {
		id := fmt.Sprintf("cell %s/%s/%s n=%d w=%d", c.Attack, c.Fault, c.Stack, c.N, c.Workers)
		if c.MissedDetection {
			v = append(v, id+": missed detection")
		}
		if c.FalseAlarm {
			v = append(v, fmt.Sprintf("%s: false alarm (%s)", id, c.AlarmReason))
		}
		if c.Leaked && c.Stack == StackFull {
			v = append(v, id+": secret leaked from a defended group")
		}
	}
	for _, b := range r.ByteSweeps {
		if b.Corrupted > 0 {
			v = append(v, fmt.Sprintf("byte-sweep %s n=%d: %d undetected corruptions", b.Name, b.N, b.Corrupted))
		}
	}
	for _, q := range r.Quorum {
		id := fmt.Sprintf("quorum %s/%s n=%d k=%d", q.Scenario, q.Fault, q.N, q.K)
		switch {
		case q.ExpectSurvive && !q.Survived:
			v = append(v, fmt.Sprintf("%s: group did not survive the fault (%d/%d benign ok, %d evicted)",
				id, q.BenignOK, q.BenignOK+q.BenignErrs, q.Evicted))
		case q.ExpectSurvive && q.Evicted != 1:
			v = append(v, fmt.Sprintf("%s: %d evictions, want exactly 1", id, q.Evicted))
		case !q.ExpectSurvive && q.AlarmReason != nvkernel.ReasonQuorumLost.String():
			v = append(v, fmt.Sprintf("%s: alarm %q, want quorum-lost", id, q.AlarmReason))
		}
		if q.MissedDetection && q.ExpectSurvive {
			v = append(v, id+": divergence probe not detected in degraded mode")
		}
		if q.FalseAlarm {
			v = append(v, fmt.Sprintf("%s: false alarm (%s)", id, q.AlarmReason))
		}
		if q.Leaked {
			v = append(v, id+": secret leaked from a degraded group")
		}
	}
	return v
}

// benignMix is the serialized benign-phase request mix.
var benignMix = []string{"/index.html", "/page1.html", "/styles.css"}

// Run executes the campaign and returns the matrix.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 10
	}
	if cfg.TriggerBudget <= 0 {
		cfg.TriggerBudget = 16
	}
	for _, plan := range cfg.Faults {
		if plan.PoolOnly() {
			return nil, fmt.Errorf("chaos: plan %q only restarts pool groups; run it in the mesh×chaos campaign", plan.Name)
		}
	}
	res := &Result{Seed: cfg.Seed, Requests: cfg.Requests}
	for _, sc := range cfg.Attacks {
		for _, plan := range cfg.Faults {
			for _, stack := range cfg.Stacks {
				for _, n := range cfg.Ns {
					for _, w := range cfg.Workers {
						cell, err := runGroupCell(cfg, sc, plan, stack, n, w)
						if err != nil {
							return nil, fmt.Errorf("chaos: cell %s/%s/%s n=%d w=%d: %w",
								sc.Name, plan.Name, stack, n, w, err)
						}
						res.Cells = append(res.Cells, cell)
					}
				}
			}
		}
	}
	if cfg.ByteSweep {
		rows, err := runByteSweeps(cfg)
		if err != nil {
			return nil, err
		}
		res.ByteSweeps = rows
	}
	if cfg.Quorum > 0 {
		cells, err := runQuorumCells(cfg)
		if err != nil {
			return nil, err
		}
		res.Quorum = cells
	}
	res.Summary = summarize(cfg, res)
	return res, nil
}

// CellSeed derives the deterministic seed of one campaign cell from
// the campaign seed and the cell's labels: FNV-1a over the labels with
// 0x1f separators, mixed with the seed through splitmix64. The result
// is independent of sweep order, so narrowing a campaign replays the
// surviving cells exactly. The mesh's unified campaign shares this
// derivation so its narrowed -chaos reruns hold the same property.
func CellSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0x1f})
	}
	return int64(mix64(uint64(seed) ^ h.Sum64()))
}

// buildGroupSpec assembles the harness spec of one cell's deployment.
func buildGroupSpec(stack string, n, w int, seed int64, kopts []nvkernel.Option) (harness.GroupSpec, error) {
	gs := harness.GroupSpec{Server: httpd.DefaultOptions(), Workers: w, Kernel: kopts}
	switch stack {
	case StackFull:
		gs.Config = harness.Config4UIDVariation
		gs.Diversity = reexpress.Generate(seed, n,
			reexpress.LayerUID, reexpress.LayerAddressPartition, reexpress.LayerUnsharedFiles)
	case StackBaseline:
		gs.Config = harness.Config3AddressSpace
		gs.Diversity = reexpress.UncheckedSpec(n,
			reexpress.AddressPartitionLayer(n),
			reexpress.UnsharedFilesLayer(reexpress.DefaultUnsharedPaths...))
	default:
		return gs, fmt.Errorf("unknown stack %q", stack)
	}
	return gs, nil
}

// runGroupCell runs one attack × fault × deployment cell.
func runGroupCell(cfg Config, sc attack.Scenario, plan Plan, stack string, n, w int) (Cell, error) {
	cell := Cell{
		Attack: sc.Name, Fault: plan.Name, Stack: stack, N: n, Workers: w,
		// Attack detection is only demanded of cells where the attack
		// actually reaches the group: under a crash-class plan the
		// monitor kills the group during the benign phase, so the
		// alarm there certifies crash-and-drain (ExpectFaultAlarm),
		// not the attack — counting it as an attack detection would
		// inflate the headline rate with cells that never exercised
		// the exploit.
		ExpectDetect:     sc.Build != nil && sc.ExpectDetect && stack == StackFull && plan.Transparent,
		ExpectFaultAlarm: !plan.Transparent,
	}
	seed := CellSeed(cfg.Seed, "group", sc.Name, plan.Name, stack, fmt.Sprint(n), fmt.Sprint(w))

	world, err := vos.NewWorld()
	if err != nil {
		return cell, err
	}
	net := simnet.New(0)
	if cfg.Obs != nil {
		net.SetMetrics(simnet.NewMetrics(cfg.Obs))
	}
	if plan.Net != nil {
		net.SetFaultInjector(plan.Net.Injector(seed + 1))
	}
	var kopts []nvkernel.Option
	if plan.Kernel != nil {
		kopts = append(kopts, nvkernel.WithFaultHook(plan.Kernel.Hook(seed+2)))
		if plan.Kernel.StallAfter > 0 {
			// A deterministic stall is sized against the quorum deadline;
			// under the default one a unanimous group would wait it out.
			kopts = append(kopts, nvkernel.WithTimeout(QuorumTimeout))
		}
	}
	if cfg.Obs != nil {
		kopts = append(kopts, nvkernel.WithMetrics(nvkernel.NewMetrics(cfg.Obs)))
	}
	gs, err := buildGroupSpec(stack, n, w, seed+3, kopts)
	if err != nil {
		return cell, err
	}
	if cfg.Obs != nil {
		gs.Server.Metrics = httpd.NewMetrics(cfg.Obs)
	}
	h, err := harness.StartSpecOn(world, net, gs)
	if err != nil {
		return cell, err
	}
	client := h.Client()

	// Serialized benign phase: the deterministic throughput measure.
	// Under a crash plan the group may die mid-phase; the remaining
	// requests fail deterministically (refused dials).
	for r := 0; r < cfg.Requests; r++ {
		code, _, err := client.Get(benignMix[r%len(benignMix)])
		if err == nil && code == 200 {
			cell.BenignOK++
		} else {
			cell.BenignErrs++
		}
	}

	// Attack phase: scripted payloads plus first-use trigger probes.
	// Only booleans leave this phase — probe counts depend on which
	// lane wins accept and are not replayable at W > 1. The adaptive
	// retry rounds exist to outlast a lossy network; against a
	// deployment that cannot detect anyway, one round decides the
	// leak outcome.
	if sc.Build != nil {
		rounds := 1
		if cell.ExpectDetect {
			rounds = 4
		}
		cell.Leaked = driveAttack(client, sc, rand.New(rand.NewSource(seed+4)), w, cfg.TriggerBudget, rounds)
	}

	res, err := h.Stop()
	if err != nil {
		return cell, err
	}
	if res.Alarm != nil {
		cell.Detected = true
		cell.AlarmReason = res.Alarm.Reason.String()
	}
	cell.MissedDetection = (cell.ExpectDetect || cell.ExpectFaultAlarm) && !cell.Detected
	cell.FalseAlarm = cell.Detected && !cell.ExpectDetect && !cell.ExpectFaultAlarm
	return cell, nil
}

// driveAttack plays one scenario: each scripted payload, then trigger
// probes for the corruption's first use. It returns whether the
// protected document ever leaked.
//
// The attacker is adaptive, as a real one would be under a lossy
// network: a dropped or truncated exchange may have destroyed the
// overwrite, so payloads are resent and trigger rounds repeated until
// the group's port refuses — the monitor killed it (detection) — or
// the budget is spent. The terminal alarm state is read from the run
// result afterwards; only booleans leave this phase.
func driveAttack(client *httpd.Client, sc attack.Scenario, rng *rand.Rand, w, budget, rounds int) (leaked bool) {
	payloads := sc.Build(rng)
	if !sc.Trigger {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for _, payload := range payloads {
			delivered := false
			for try := 0; try < 8 && !delivered; try++ {
				_, err := client.Raw(payload)
				switch {
				case err == nil:
					delivered = true
				case errors.Is(err, simnet.ErrRefused):
					return leaked // group dead: the monitor already fired
				}
				// Otherwise the fault plan severed the exchange — the
				// overwrite may not have landed; resend.
			}
			if !sc.Trigger || !delivered {
				continue
			}
			for t := 0; t < budget*w; t++ {
				if sc.InterleaveBenign && t%2 == 1 {
					// Healthy sibling lanes keep serving mid-corruption.
					if _, _, err := client.Get("/index.html"); errors.Is(err, simnet.ErrRefused) {
						return leaked
					}
					continue
				}
				code, body, err := client.Get("/private/secret.html")
				switch {
				case err == nil && code == 200 && httpd.ContainsSecret(body):
					leaked = true
					return leaked
				case errors.Is(err, simnet.ErrRefused):
					return leaked
				}
			}
		}
	}
	return leaked
}

// byteSweepVictim is the canonical worker UID the word-level brute
// force corrupts (wwwrun, the httpd worker identity in the stock
// world).
const byteSweepVictim = word.Word(30)

// runByteSweeps brute-forces every single-byte overwrite against each
// swept N's generated masks, plus the paper's published pair.
func runByteSweeps(cfg Config) ([]ByteSweepRow, error) {
	pair := reexpress.UIDVariation().Pair
	rows := []ByteSweepRow{{Name: "paper-uid-pair", N: 2}}
	rep, err := attack.ByteSweep([]reexpress.Func{pair.R0, pair.R1}, byteSweepVictim)
	if err != nil {
		return nil, err
	}
	rows[0].Trials, rows[0].Detected, rows[0].Corrupted, rows[0].Harmless =
		rep.Trials, rep.Detected, rep.Corrupted, rep.Harmless
	for _, n := range cfg.Ns {
		spec := reexpress.Generate(CellSeed(cfg.Seed, "bytesweep", fmt.Sprint(n)), n, reexpress.LayerUID)
		rep, err := attack.ByteSweep(spec.UIDFuncs(), byteSweepVictim)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ByteSweepRow{
			Name: "generated-masks", N: n,
			Trials: rep.Trials, Detected: rep.Detected, Corrupted: rep.Corrupted, Harmless: rep.Harmless,
		})
	}
	return rows, nil
}

// Strike delivers a forged-UID payload on client and fires trigger
// requests for its first use. It is adaptive — up to 8 rounds of
// overwrite + 64 triggers, until the victim's port refuses (the monitor
// killed it) — so a fault plan cannot mask a detection. gone, when
// non-nil, reports that a pooled victim has left its pool: the pool
// recycles a dead group's port, so a kill the fault plan turned into a
// dropped exchange must not leave the strike sending into the
// replacement. Strike reports whether the victim was killed and
// whether any trigger leaked the secret.
func Strike(client *httpd.Client, payload []byte, gone func() bool) (detected, leaked bool) {
	if gone == nil {
		gone = func() bool { return false }
	}
	for round := 0; round < 8 && !detected; round++ {
		if gone() {
			return true, leaked // the pool already pruned the killed victim
		}
		if _, err := client.Raw(payload); errors.Is(err, simnet.ErrRefused) {
			return true, leaked // victim already killed by a prior round's trigger
		}
		for t := 0; t < 64 && !detected; t++ {
			if gone() {
				return true, leaked
			}
			code, body, err := client.Get("/private/secret.html")
			switch {
			case errors.Is(err, simnet.ErrRefused):
				detected = true
			case err == nil && code == 200 && httpd.ContainsSecret(body):
				leaked = true
			}
		}
	}
	return detected, leaked
}

// summarize computes the campaign headline from the matrix.
func summarize(cfg Config, r *Result) Summary {
	s := Summary{Cells: len(r.Cells)}
	perFault := make(map[string]*FaultSummary)
	var order []string
	for _, p := range cfg.Faults {
		fs := &FaultSummary{Fault: p.Name}
		perFault[p.Name] = fs
		order = append(order, p.Name)
	}
	for _, c := range r.Cells {
		if c.ExpectDetect {
			s.ExpectedDetections++
			if c.Detected {
				s.Detections++
			}
		}
		if c.MissedDetection {
			s.MissedDetections++
		}
		if c.FalseAlarm {
			s.FalseAlarms++
		}
		if c.Leaked {
			if c.Stack == StackFull {
				s.DefendedLeaks++
			} else {
				s.UndefendedLeaks++
			}
		}
		if fs := perFault[c.Fault]; fs != nil {
			fs.Cells++
			fs.BenignOK += c.BenignOK
			fs.BenignErrs += c.BenignErrs
			if c.FalseAlarm {
				fs.FalseAlarms++
			}
		}
	}
	for _, q := range r.Quorum {
		s.QuorumCells++
		if q.Survived {
			s.QuorumSurvived++
		}
		s.QuorumEvictions += q.Evicted
		if q.ExpectSurvive {
			// The re-included crash/stall cells count toward the headline
			// rate through their divergence probes.
			s.ExpectedDetections++
			if q.ProbeDetected {
				s.Detections++
			}
		}
		if q.MissedDetection {
			s.MissedDetections++
		}
		if q.FalseAlarm {
			s.FalseAlarms++
		}
	}
	if s.ExpectedDetections > 0 {
		s.DetectionRate = float64(s.Detections) / float64(s.ExpectedDetections)
	}
	baselineOK := 0
	if fs, ok := perFault["none"]; ok {
		baselineOK = fs.BenignOK
	}
	for _, name := range order {
		fs := perFault[name]
		if baselineOK > 0 {
			fs.ThroughputRetained = float64(fs.BenignOK) / float64(baselineOK)
		}
		s.PerFault = append(s.PerFault, *fs)
	}
	return s
}

// Fprint renders the matrix headline and per-fault table for humans;
// the JSON matrix is the machine artifact.
func (r *Result) Fprint(w io.Writer) {
	s := r.Summary
	fmt.Fprintf(w, "Chaos campaign (seed %d): %d group cells, %d quorum cells, %d byte sweeps\n",
		r.Seed, len(r.Cells), len(r.Quorum), len(r.ByteSweeps))
	fmt.Fprintf(w, "  detection: %d/%d expected (rate %.2f); missed %d; false alarms %d\n",
		s.Detections, s.ExpectedDetections, s.DetectionRate, s.MissedDetections, s.FalseAlarms)
	fmt.Fprintf(w, "  leaks: %d defended (must be 0), %d undefended-baseline (expected)\n",
		s.DefendedLeaks, s.UndefendedLeaks)
	fmt.Fprintf(w, "  %-14s %6s %10s %10s %12s %s\n", "fault", "cells", "benign-ok", "errors", "tput-ratio", "false-alarms")
	for _, fs := range s.PerFault {
		fmt.Fprintf(w, "  %-14s %6d %10d %10d %12.3f %d\n",
			fs.Fault, fs.Cells, fs.BenignOK, fs.BenignErrs, fs.ThroughputRetained, fs.FalseAlarms)
	}
	for _, b := range r.ByteSweeps {
		fmt.Fprintf(w, "  byte-sweep %-16s n=%d: %d/%d detected, %d corrupted, %d harmless\n",
			b.Name, b.N, b.Detected, b.Trials, b.Corrupted, b.Harmless)
	}
	for _, q := range r.Quorum {
		fmt.Fprintf(w, "  quorum %-12s %-14s n=%d k=%d: %d ok / %d errs, survived %v, evicted %d (%s), probe-detected %v (%s)\n",
			q.Scenario, q.Fault, q.N, q.K, q.BenignOK, q.BenignErrs, q.Survived, q.Evicted, q.EvictedKind, q.ProbeDetected, q.AlarmReason)
	}
	if v := r.Check(); len(v) > 0 {
		fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(v))
		for _, line := range v {
			fmt.Fprintf(w, "    %s\n", line)
		}
	} else {
		fmt.Fprintln(w, "  contract: all corpus attacks detected, zero false alarms, zero defended leaks")
	}
}
