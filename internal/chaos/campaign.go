package chaos

// The campaign runner: sweep the expanded attack corpus against every
// fault plan across group size N, worker-lane count W, and variation
// stack, from one seed, and emit a deterministic JSON matrix of
// detection / false-alarm / throughput-retained results. The K-of-N
// cells are the same group cells with a quorum K set: the
// variant-fault plans against groups that can (N = K+1) or cannot
// (N = K) afford to lose a variant.
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
	// Quorum, when K ≥ 1, adds the K-of-N cells: every variant-fault
	// plan (excluded from the headline detection rate in unanimous
	// mode) against a full-stack K-of-(K+1) group attacked with
	// forge-root-uid — it must evict the faulted variant, serve every
	// benign request and still detect the attack among the live
	// variants — and against an unattacked K-of-K group, which must
	// die quorum-lost.
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
// stacks, plus byte sweeps and the K-of-N cells.
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
// group deployment under one fault plan. K > 0 marks a K-of-N quorum
// group; K, Evicted and EvictedKind are omitted from the JSON of a
// unanimous cell.
type Cell struct {
	Attack  string `json:"attack"`
	Fault   string `json:"fault"`
	Stack   string `json:"stack"`
	N       int    `json:"n"`
	K       int    `json:"k,omitempty"`
	Workers int    `json:"workers"`

	// ExpectDetect: a correctly deployed UID stack must alarm on this
	// scenario.
	ExpectDetect bool `json:"expect_detect"`
	// ExpectFaultAlarm: the fault plan itself must be detected
	// (crash-class faults that kill the group).
	ExpectFaultAlarm bool `json:"expect_fault_alarm"`

	// BenignOK / BenignErrs count the serialized benign phase's
	// request outcomes (the deterministic throughput measure).
	BenignOK   int `json:"benign_ok"`
	BenignErrs int `json:"benign_errs"`
	// Evicted counts the variants a quorum group evicted; EvictedKind
	// is the first eviction's kind (crash or stall).
	Evicted     int    `json:"evicted,omitempty"`
	EvictedKind string `json:"evicted_kind,omitempty"`

	Detected    bool   `json:"detected"`
	AlarmReason string `json:"alarm_reason,omitempty"`
	Leaked      bool   `json:"leaked"`

	MissedDetection bool `json:"missed_detection"`
	FalseAlarm      bool `json:"false_alarm"`
}

// survivesFault reports whether the cell's group can lose one variant
// and keep serving: a quorum group with a spare live variant.
func (c Cell) survivesFault() bool { return c.K > 0 && c.N > c.K }

// ByteSweepRow is one word-level exhaustive brute-force result.
type ByteSweepRow struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Trials    int    `json:"trials"`
	Detected  int    `json:"detected"`
	Corrupted int    `json:"corrupted"`
	Harmless  int    `json:"harmless"`
}

// FaultSummary aggregates one fault plan across its unanimous group
// cells.
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

// Summary is the campaign headline. A K-of-(K+1) cell's attack counts
// toward ExpectedDetections / Detections: with a quorum a variant-fault
// cell counts toward the headline rate again — what it must detect is
// the attack among the live variants, not the fault itself. The
// Quorum* fields count the K-of-N cells and are zero (and omitted from
// JSON) when the campaign has none.
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
// undetected word-level corruptions, K-of-(K+1) cells that did not
// survive the fault, evict exactly one variant and alarm on the attack
// as uid-divergence, and K-of-K cells that did not die quorum-lost. An
// empty list is the passing campaign.
func (r *Result) Check() []string {
	var v []string
	for _, c := range r.Cells {
		id := fmt.Sprintf("cell %s/%s/%s n=%d w=%d", c.Attack, c.Fault, c.Stack, c.N, c.Workers)
		if c.K > 0 {
			id += fmt.Sprintf(" k=%d", c.K)
		}
		if c.MissedDetection {
			v = append(v, id+": missed detection")
		}
		if c.FalseAlarm {
			v = append(v, fmt.Sprintf("%s: false alarm (%s)", id, c.AlarmReason))
		}
		if c.Leaked && c.Stack == StackFull {
			v = append(v, id+": secret leaked from a defended group")
		}
		switch {
		case c.survivesFault():
			if c.BenignErrs > 0 {
				v = append(v, fmt.Sprintf("%s: group did not survive the fault (%d/%d benign ok)",
					id, c.BenignOK, c.BenignOK+c.BenignErrs))
			}
			if c.Evicted != 1 {
				v = append(v, fmt.Sprintf("%s: %d evictions, want exactly 1", id, c.Evicted))
			}
			if c.AlarmReason != nvkernel.ReasonUIDDivergence.String() {
				v = append(v, fmt.Sprintf("%s: alarm %q, want uid-divergence among the live variants", id, c.AlarmReason))
			}
		case c.K > 0 && c.AlarmReason != nvkernel.ReasonQuorumLost.String():
			v = append(v, fmt.Sprintf("%s: alarm %q, want quorum-lost", id, c.AlarmReason))
		}
	}
	for _, b := range r.ByteSweeps {
		if b.Corrupted > 0 {
			v = append(v, fmt.Sprintf("byte-sweep %s n=%d: %d undetected corruptions", b.Name, b.N, b.Corrupted))
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
	addCell := func(sc attack.Scenario, plan Plan, stack string, n, k, w int) error {
		cell, err := runGroupCell(cfg, sc, plan, stack, n, k, w)
		if err != nil {
			return fmt.Errorf("chaos: cell %s/%s/%s n=%d k=%d w=%d: %w", sc.Name, plan.Name, stack, n, k, w, err)
		}
		res.Cells = append(res.Cells, cell)
		return nil
	}
	for _, sc := range cfg.Attacks {
		for _, plan := range cfg.Faults {
			for _, stack := range cfg.Stacks {
				for _, n := range cfg.Ns {
					for _, w := range cfg.Workers {
						if err := addCell(sc, plan, stack, n, 0, w); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	if cfg.Quorum > 0 {
		// The K-of-N cells: each variant fault against a group that can
		// afford to lose one variant (attacked, so the live variants must
		// still detect) and against one that cannot.
		forge, err := attack.ScenarioByName("forge-root-uid")
		if err != nil {
			return nil, err
		}
		for _, plan := range Plans() {
			if !plan.VariantFault() {
				continue
			}
			if err := addCell(forge, plan, StackFull, cfg.Quorum+1, cfg.Quorum, 1); err != nil {
				return nil, err
			}
			if err := addCell(NoAttack(), plan, StackFull, cfg.Quorum, cfg.Quorum, 1); err != nil {
				return nil, err
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

// runGroupCell runs one attack × fault × deployment cell; k > 0
// deploys a K-of-N quorum group.
func runGroupCell(cfg Config, sc attack.Scenario, plan Plan, stack string, n, k, w int) (Cell, error) {
	cell := Cell{Attack: sc.Name, Fault: plan.Name, Stack: stack, N: n, K: k, Workers: w}
	// Attack detection is only demanded of cells where the attack
	// actually reaches the group: under a crash-class plan a unanimous
	// monitor (or a quorum group without a spare variant) kills the
	// group during the benign phase, so the alarm there certifies
	// crash-and-drain (ExpectFaultAlarm), not the attack — counting it
	// as an attack detection would inflate the headline rate with cells
	// that never exercised the exploit.
	reached := plan.Transparent || cell.survivesFault()
	cell.ExpectDetect = sc.Build != nil && sc.ExpectDetect && stack == StackFull && reached
	cell.ExpectFaultAlarm = !reached
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
		if plan.Kernel.StallAfter > 0 || k > 0 {
			// A deterministic stall is sized against the quorum deadline;
			// under the default one a unanimous group would wait it out.
			// Quorum groups always run on that deadline.
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
	gs.Quorum = k
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
	// requests fail deterministically (refused dials). A quorum group
	// with a spare variant evicts the faulted one instead and serves
	// every request.
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
	// lane wins accept and are not replayable at W > 1. Every trigger
	// scenario gets the same adaptive rounds, defended or not: at W > 1
	// the outcome of a single round also depends on which lane wins
	// accept, so the undefended leak flag would not replay.
	if sc.Build != nil {
		cell.Leaked = driveAttack(client, sc, rand.New(rand.NewSource(seed+4)), w, cfg.TriggerBudget)
	}

	res, err := h.Stop()
	if err != nil {
		return cell, err
	}
	if res.Alarm != nil {
		cell.Detected = true
		cell.AlarmReason = res.Alarm.Reason.String()
	}
	cell.Evicted = len(res.Evictions)
	if cell.Evicted > 0 {
		cell.EvictedKind = res.Evictions[0].Kind.String()
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
// the budget of attackRounds rounds is spent. The terminal alarm state
// is read from the run result afterwards; only booleans leave this
// phase.
func driveAttack(client *httpd.Client, sc attack.Scenario, rng *rand.Rand, w, budget int) (leaked bool) {
	payloads := sc.Build(rng)
	rounds := attackRounds
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

// attackRounds is how many times driveAttack replays a trigger
// scenario's payloads and probes.
const attackRounds = 4

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
		if c.K > 0 {
			s.QuorumCells++
			s.QuorumEvictions += c.Evicted
			if c.BenignErrs == 0 && c.Evicted == 1 {
				s.QuorumSurvived++
			}
			continue // per_fault aggregates the unanimous cells
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
	fmt.Fprintf(w, "Chaos campaign (seed %d): %d group cells (%d K-of-N: %d survived, %d evictions), %d byte sweeps\n",
		r.Seed, len(r.Cells), s.QuorumCells, s.QuorumSurvived, s.QuorumEvictions, len(r.ByteSweeps))
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
	if v := r.Check(); len(v) > 0 {
		fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(v))
		for _, line := range v {
			fmt.Fprintf(w, "    %s\n", line)
		}
	} else {
		fmt.Fprintln(w, "  contract: all corpus attacks detected, zero false alarms, zero defended leaks")
	}
}
