package chaos

// The quorum campaign section: crash-class fault plans are excluded
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
// Pools of K-of-N groups run the same plans in the mesh×chaos
// campaign, which gates their eviction/respawn accounting.

import (
	"fmt"

	"nvariant/internal/attack"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

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

// runQuorumCells sweeps the quorum section's group cells: each
// variant-fault plan at N = K+1 (one fault survivable) expecting
// survival + probe detection, and at N = K (any fault loses the
// quorum) expecting a quorum-lost kill.
func runQuorumCells(cfg Config) ([]QuorumCell, error) {
	k := cfg.Quorum
	var cells []QuorumCell
	for _, plan := range Plans() {
		if !plan.VariantFault() {
			continue
		}
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
	seed := CellSeed(cfg.Seed, "quorum", scenario, plan.Name, fmt.Sprint(n))

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
		nvkernel.WithTimeout(QuorumTimeout),
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
		cell.ProbeDetected, cell.Leaked = Strike(client, attack.ForgeUIDPayload(vos.Root), nil)
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
