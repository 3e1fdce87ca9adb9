package chaos

// The quorum campaign section: PR 5 excluded crash-class fault plans
// from the headline detection rate because an unanimous group dies with
// its faulted variant — the alarm certified crash-and-drain, not the
// attack. K-of-N quorum rendezvous changes the contract: a variant
// fault with enough live survivors is *survived* (evicted + degraded
// mode), so crash and stall plans come back as quorum-survival cells
// whose gates are availability (zero benign errors), exactly one
// eviction of the right kind, and — the detection half — a divergence
// probe among the live variants that must still raise the usual alarm.
// Below-quorum cells assert the other edge: losing the quorum kills
// the group with a quorum-lost alarm, never a lone variant serving.

import (
	"fmt"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
)

// quorumTimeout is the rendezvous deadline of quorum cells: short
// enough that quorumStall (the injected hard stall) reliably blows it.
const (
	quorumTimeout = 100 * time.Millisecond
	quorumStall   = 500 * time.Millisecond
)

// quorumPlans returns the fault plans of the quorum section: the
// deterministic crash and a deterministic deadline-blowing stall, both
// striking variant 1 so the same plan works at every swept N ≥ 2.
// These are deliberately not part of Plans(): outside quorum mode a
// crash plan is the detected-fault class, and the hard stall would
// read as a missed deadline, not a transparent fault.
func quorumPlans() []Plan {
	return []Plan{
		{Name: "variant-crash",
			Kernel: &KernelPlan{CrashVariant: 1, CrashCall: sys.Recv, CrashAfter: 3}},
		{Name: "variant-stall",
			Kernel: &KernelPlan{StallVariant: 1, StallCall: sys.Recv, StallAfter: 3, Stall: quorumStall}},
	}
}

// QuorumCell is one quorum-section matrix entry: one deterministic
// variant fault against one K-of-N group, then (in surviving cells) a
// divergence probe among the live variants.
type QuorumCell struct {
	Scenario string `json:"scenario"`
	Fault    string `json:"fault"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	Workers  int    `json:"workers"`

	// ExpectSurvive: the fault leaves ≥ K live variants, so the group
	// must evict and keep serving; otherwise it must die quorum-lost.
	ExpectSurvive bool `json:"expect_survive"`

	BenignOK   int `json:"benign_ok"`
	BenignErrs int `json:"benign_errs"`

	// Survived: the whole benign phase was served (100% availability
	// across the fault) and the fault is on record as an eviction.
	Survived    bool   `json:"survived"`
	Evicted     int    `json:"evicted"`
	EvictedKind string `json:"evicted_kind,omitempty"`

	// ProbeDetected: the post-fault divergence probe among the live
	// variants raised an alarm — the detection contract in degraded
	// mode.
	ProbeDetected bool   `json:"probe_detected"`
	AlarmReason   string `json:"alarm_reason,omitempty"`
	Leaked        bool   `json:"leaked"`

	MissedDetection bool `json:"missed_detection"`
	FalseAlarm      bool `json:"false_alarm"`
}

// QuorumFleetCell is the fleet half: a pool of K-of-N groups absorbing
// one deterministic variant fault. Gates: full availability, the
// eviction surfaced in fleet stats, the degraded group respawned at
// full width in the background, and zero detections (a fault is not an
// attack).
type QuorumFleetCell struct {
	Fault  string `json:"fault"`
	Groups int    `json:"groups"`
	N      int    `json:"n"`
	K      int    `json:"k"`

	BenignOK   int `json:"benign_ok"`
	BenignErrs int `json:"benign_errs"`

	Evictions   int `json:"evictions"`
	Respawned   int `json:"respawned"`
	DegradedEnd int `json:"degraded_end"`
	Detections  int `json:"detections"`

	MissedRespawn bool `json:"missed_respawn"`
	FalseAlarm    bool `json:"false_alarm"`
}

// runQuorumCells sweeps the quorum section's group cells: each fault
// plan at N = K+1 (one fault survivable) expecting survival + probe
// detection, and at N = K (any fault loses the quorum) expecting a
// quorum-lost kill.
func runQuorumCells(cfg Config) ([]QuorumCell, error) {
	k := cfg.Quorum
	var cells []QuorumCell
	for _, plan := range quorumPlans() {
		for _, scenario := range []struct {
			name          string
			n             int
			expectSurvive bool
		}{
			{"survive", k + 1, true},
			{"quorum-lost", k, false},
		} {
			cell, err := runQuorumCell(cfg, plan, scenario.name, scenario.n, scenario.expectSurvive)
			if err != nil {
				return nil, fmt.Errorf("chaos: quorum cell %s/%s n=%d: %w",
					scenario.name, plan.Name, scenario.n, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// runQuorumCell runs one deterministic fault against one K-of-N group.
func runQuorumCell(cfg Config, plan Plan, scenario string, n int, expectSurvive bool) (QuorumCell, error) {
	cell := QuorumCell{
		Scenario: scenario, Fault: plan.Name, N: n, K: cfg.Quorum, Workers: 1,
		ExpectSurvive: expectSurvive,
	}
	seed := cellSeed(cfg.Seed, "quorum", scenario, plan.Name, fmt.Sprint(n))

	world, err := vos.NewWorld()
	if err != nil {
		return cell, err
	}
	net := simnet.New(0)
	if cfg.Obs != nil {
		net.SetMetrics(simnet.NewMetrics(cfg.Obs))
	}
	kopts := []nvkernel.Option{
		nvkernel.WithFaultHook(plan.Kernel.Hook(seed + 2)),
		nvkernel.WithTimeout(quorumTimeout),
	}
	if cfg.Obs != nil {
		kopts = append(kopts, nvkernel.WithMetrics(nvkernel.NewMetrics(cfg.Obs)))
	}
	gs, err := buildGroupSpec(StackFull, n, 1, seed+3, kopts)
	if err != nil {
		return cell, err
	}
	gs.Quorum = cfg.Quorum
	if cfg.Obs != nil {
		gs.Server.Metrics = httpd.NewMetrics(cfg.Obs)
	}
	h, err := harness.StartSpecOn(world, net, gs)
	if err != nil {
		return cell, err
	}
	client := h.Client()

	// Serialized benign phase across the injected fault. In surviving
	// cells every request must complete — the fault costs one variant,
	// not one request; in quorum-lost cells the group dies mid-phase
	// and the tail fails deterministically.
	for r := 0; r < cfg.Requests; r++ {
		code, _, err := client.Get(benignMix[r%len(benignMix)])
		if err == nil && code == 200 {
			cell.BenignOK++
		} else {
			cell.BenignErrs++
		}
	}

	// Probe phase (surviving cells): a forged-UID overwrite against the
	// degraded group. The corruption diverges among the *live* variants
	// on first use, and the monitor must still kill the group for it.
	if expectSurvive {
		cell.ProbeDetected, cell.Leaked = strike(client, attack.ForgeUIDPayload(vos.Root))
	}

	res, err := h.Stop()
	if err != nil {
		return cell, err
	}
	if res.Alarm != nil {
		cell.AlarmReason = res.Alarm.Reason.String()
	}
	cell.Evicted = len(res.Evictions)
	if cell.Evicted > 0 {
		cell.EvictedKind = res.Evictions[0].Kind.String()
	}
	cell.Survived = cell.BenignErrs == 0 && cell.Evicted == 1
	if expectSurvive {
		cell.MissedDetection = !cell.ProbeDetected
		cell.FalseAlarm = cell.AlarmReason != "" && cell.AlarmReason != nvkernel.ReasonUIDDivergence.String()
	} else {
		cell.MissedDetection = cell.AlarmReason != nvkernel.ReasonQuorumLost.String()
		cell.FalseAlarm = false
	}
	return cell, nil
}

// runQuorumFleetCells runs one fleet pool per quorum fault plan.
func runQuorumFleetCells(cfg Config) ([]QuorumFleetCell, error) {
	var cells []QuorumFleetCell
	for _, plan := range quorumPlans() {
		fc, err := runQuorumFleetCell(cfg, plan)
		if err != nil {
			return nil, fmt.Errorf("chaos: quorum fleet cell %s: %w", plan.Name, err)
		}
		cells = append(cells, fc)
	}
	return cells, nil
}

// runQuorumFleetCell runs a pool of K-of-N groups through one
// deterministic variant fault under serialized load, then waits for
// the degraded group's background respawn to settle.
func runQuorumFleetCell(cfg Config, plan Plan) (QuorumFleetCell, error) {
	groups := cfg.FleetGroups
	if groups <= 0 {
		groups = 2
	}
	n := cfg.Quorum + 1
	cell := QuorumFleetCell{Fault: plan.Name, Groups: groups, N: n, K: cfg.Quorum}
	seed := cellSeed(cfg.Seed, "quorum-fleet", plan.Name)

	f, err := fleet.New(fleet.Options{
		Groups:   groups,
		Variants: n,
		Quorum:   cfg.Quorum,
		Config:   harness.Config4UIDVariation,
		Server:   httpd.DefaultOptions(),
		Seed:     seed,
		Kernel: []nvkernel.Option{
			nvkernel.WithFaultHook(plan.Kernel.Hook(seed + 2)),
			nvkernel.WithTimeout(quorumTimeout),
		},
		Obs: cfg.Obs,
	})
	if err != nil {
		return cell, err
	}
	defer func() { _, _ = f.Stop() }()
	client := f.Client()

	// Serialized benign phase: the fault strikes one group mid-phase;
	// the pool must serve every request regardless (the struck group on
	// its quorum, its siblings at full width).
	for r := 0; r < cfg.Requests; r++ {
		code, _, err := client.Get(benignMix[r%len(benignMix)])
		if err == nil && code == 200 {
			cell.BenignOK++
		} else {
			cell.BenignErrs++
		}
	}

	// The degraded group is drained and respawned in the background;
	// wait for the pool to settle back to full width with no degraded
	// member before reading the counters.
	if err := f.Await(func(s fleet.Stats) bool {
		return s.Evictions >= 1 && s.Respawned >= 1 &&
			s.DegradedGroups == 0 && len(s.Healthy) >= groups
	}, 30*time.Second); err != nil {
		cell.MissedRespawn = true
	}
	stats, err := f.Stop()
	if err != nil {
		return cell, err
	}
	cell.Evictions = stats.Evictions
	cell.Respawned = stats.Respawned
	cell.DegradedEnd = stats.DegradedGroups
	cell.Detections = stats.Detections
	cell.FalseAlarm = stats.Detections > 0
	return cell, nil
}
