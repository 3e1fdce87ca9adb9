package experiments_test

import (
	"testing"

	"nvariant/internal/experiments"
)

func TestNSweepDetectsWithWorkers(t *testing.T) {
	// The N-sweep's detection contract must survive intra-group
	// concurrency: with prefork worker lanes, every injected divergence
	// is still detected (the trial drives triggers until the corrupted
	// lane sees one) and nothing leaks.
	opts := experiments.NSweepOptions{
		Ns:                []int{2, 3},
		Trials:            2,
		Engines:           4,
		RequestsPerEngine: 6,
		WorkFactor:        20,
		Workers:           3,
	}
	rep, err := experiments.RunNSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row.Detections != row.Trials {
			t.Errorf("N=%d: detections = %d/%d with workers", row.N, row.Detections, row.Trials)
		}
		if row.Leaks != 0 {
			t.Errorf("N=%d: %d leaks with workers", row.N, row.Leaks)
		}
		if row.Load.Errors != 0 {
			t.Errorf("N=%d: %d benign-load errors with workers", row.N, row.Load.Errors)
		}
	}
}
