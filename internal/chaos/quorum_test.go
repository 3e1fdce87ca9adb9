package chaos_test

import (
	"bytes"
	"testing"

	"nvariant/internal/chaos"
)

// TestQuorumCampaignSurvivesAndDetects is the acceptance scenario: from
// one seed, the K=2-of-3 groups must survive one crash and one stall at
// 100% availability, detect the divergence probe among the live
// variants, and raise zero false alarms; the N=K cells must die
// quorum-lost. It runs the default campaign narrowed to its quorum
// section, so these are the cells `campaign -seed 1` emits. Byte-
// identical replay is asserted by running twice (CI additionally
// replays the whole campaign under -race and compares with cmp). Pools
// of K-of-N groups are the mesh×chaos campaign's variant-fault cells.
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
	if len(r1.Cells) != 0 || len(r1.Quorum) != 4 {
		t.Fatalf("group/quorum cells = %d/%d, want 0/4 (crash/stall x survive/quorum-lost)", len(r1.Cells), len(r1.Quorum))
	}
	kinds := map[string]bool{}
	for _, q := range r1.Quorum {
		if q.ExpectSurvive {
			if !q.Survived || q.BenignErrs != 0 {
				t.Errorf("%s/%s: survived=%v errs=%d, want survival at full availability",
					q.Scenario, q.Fault, q.Survived, q.BenignErrs)
			}
			if !q.ProbeDetected || q.Leaked {
				t.Errorf("%s/%s: probe detected=%v leaked=%v", q.Scenario, q.Fault, q.ProbeDetected, q.Leaked)
			}
			kinds[q.EvictedKind] = true
		} else if q.AlarmReason != "quorum-lost" {
			t.Errorf("%s/%s: alarm = %q, want quorum-lost", q.Scenario, q.Fault, q.AlarmReason)
		}
	}
	if !kinds["crash"] || !kinds["stall"] {
		t.Errorf("evicted kinds = %v, want both crash and stall", kinds)
	}
	s := r1.Summary
	if s.QuorumSurvived != 2 || s.QuorumEvictions != 2 {
		t.Errorf("summary quorum counters = survived %d evictions %d, want 2/2",
			s.QuorumSurvived, s.QuorumEvictions)
	}
	if s.FalseAlarms != 0 {
		t.Errorf("false alarms = %d, want 0", s.FalseAlarms)
	}
	// The probe detections are the re-included headline contribution.
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
