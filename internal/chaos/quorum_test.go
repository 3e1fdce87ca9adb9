package chaos_test

import (
	"bytes"
	"testing"

	"nvariant/internal/chaos"
)

// TestQuorumCampaignSurvivesAndDetects is the acceptance scenario: from
// one seed, the K=2-of-3 groups must survive one crash and one stall at
// 100% availability, detect the forge-root-uid attack among the live
// variants, and raise zero false alarms; the N=K cells must die
// quorum-lost. It runs the default campaign narrowed to its K-of-N
// cells (no unanimous attacks), so these are the K > 0 cells
// `campaign -seed 1` emits. Byte-identical replay is asserted by
// running twice (CI additionally replays the whole campaign under
// -race and GOMAXPROCS=1 and compares with cmp). Pools of K-of-N
// groups are the mesh×chaos campaign's variant-fault cells.
func TestQuorumCampaignSurvivesAndDetects(t *testing.T) {
	cfg := chaos.DefaultConfig(1)
	cfg.Attacks = nil
	cfg.ByteSweep = false
	r1, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := r1.Check(); len(v) > 0 {
		t.Fatalf("quorum campaign contract violated: %v", v)
	}
	if len(r1.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (crash/stall x survive/quorum-lost)", len(r1.Cells))
	}
	kinds := map[string]bool{}
	survived, lost := 0, 0
	for _, c := range r1.Cells {
		if c.K != chaos.QuorumK {
			t.Fatalf("%s/%s n=%d: k = %d, want %d", c.Attack, c.Fault, c.N, c.K, chaos.QuorumK)
		}
		if c.N > c.K {
			if c.BenignErrs != 0 || c.Evicted != 1 {
				t.Errorf("%s/%s: errs=%d evicted=%d, want survival at full availability",
					c.Attack, c.Fault, c.BenignErrs, c.Evicted)
			}
			if !c.Detected || c.AlarmReason != "uid-divergence" || c.Leaked {
				t.Errorf("%s/%s: detected=%v (%s) leaked=%v, want a uid-divergence detection",
					c.Attack, c.Fault, c.Detected, c.AlarmReason, c.Leaked)
			}
			kinds[c.EvictedKind] = true
			survived++
		} else if c.AlarmReason != "quorum-lost" {
			t.Errorf("%s/%s: alarm = %q, want quorum-lost", c.Attack, c.Fault, c.AlarmReason)
		} else {
			lost++
		}
	}
	if survived != 2 || lost != 2 {
		t.Errorf("survived/quorum-lost cells = %d/%d, want 2/2", survived, lost)
	}
	if !kinds["crash"] || !kinds["stall"] {
		t.Errorf("evicted kinds = %v, want both crash and stall", kinds)
	}
	s := r1.Summary
	if s.QuorumCells != 4 || s.QuorumSurvived != 2 || s.QuorumEvictions != 2 {
		t.Errorf("summary quorum counters = cells %d survived %d evictions %d, want 4/2/2",
			s.QuorumCells, s.QuorumSurvived, s.QuorumEvictions)
	}
	if s.FalseAlarms != 0 {
		t.Errorf("false alarms = %d, want 0", s.FalseAlarms)
	}
	// The survive cells' attacks are the re-included headline
	// contribution.
	if s.ExpectedDetections != 2 || s.Detections != 2 {
		t.Errorf("detections = %d/%d, want 2/2", s.Detections, s.ExpectedDetections)
	}

	r2, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed produced different quorum matrices: %s", firstDiff(j1, j2))
	}
}

// TestCheckFlagsQuorumViolations: Check is the CI gate — make sure each
// K-of-N clause fires on a doctored cell, and that the cells the
// campaign emits pass.
func TestCheckFlagsQuorumViolations(t *testing.T) {
	survive := chaos.Cell{
		Attack: "forge-root-uid", Fault: "variant-crash", Stack: chaos.StackFull, N: 3, K: 2, Workers: 1,
		ExpectDetect: true, BenignOK: 10, Evicted: 1, EvictedKind: "crash",
		Detected: true, AlarmReason: "uid-divergence",
	}
	lost := chaos.Cell{
		Attack: "none", Fault: "variant-stall", Stack: chaos.StackFull, N: 2, K: 2, Workers: 1,
		ExpectFaultAlarm: true, BenignOK: 1, BenignErrs: 9,
		Detected: true, AlarmReason: "quorum-lost",
	}
	for _, tc := range []struct {
		name   string
		doctor func(c *chaos.Cell)
		base   chaos.Cell
		want   int
	}{
		{"survive-clean", func(*chaos.Cell) {}, survive, 0},
		{"lost-clean", func(*chaos.Cell) {}, lost, 0},
		{"survive-benign-errors", func(c *chaos.Cell) { c.BenignOK, c.BenignErrs = 9, 1 }, survive, 1},
		{"survive-no-eviction", func(c *chaos.Cell) { c.Evicted, c.EvictedKind = 0, "" }, survive, 1},
		{"survive-two-evictions", func(c *chaos.Cell) { c.Evicted = 2 }, survive, 1},
		{"survive-wrong-alarm", func(c *chaos.Cell) { c.AlarmReason = "quorum-lost" }, survive, 1},
		{"survive-leak", func(c *chaos.Cell) { c.Leaked = true }, survive, 1},
		{"survive-undetected", func(c *chaos.Cell) {
			c.Detected, c.AlarmReason, c.MissedDetection = false, "", true
		}, survive, 2}, // missed detection + no uid-divergence alarm
		{"lost-wrong-alarm", func(c *chaos.Cell) { c.AlarmReason = "uid-divergence" }, lost, 1},
		{"lost-no-alarm", func(c *chaos.Cell) {
			c.Detected, c.AlarmReason, c.MissedDetection = false, "", true
		}, lost, 2}, // missed fault alarm + no quorum-lost alarm
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.base
			tc.doctor(&c)
			r := &chaos.Result{Cells: []chaos.Cell{c}}
			if v := r.Check(); len(v) != tc.want {
				t.Errorf("Check found %d violations, want %d: %v", len(v), tc.want, v)
			}
		})
	}
}
