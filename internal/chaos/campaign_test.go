package chaos_test

import (
	"bytes"
	"fmt"
	"testing"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
)

// smallConfig is a fast campaign crossing that still exercises every
// moving part: benign + detecting + flood scenarios, transparent and
// crash fault plans, serial and prefork groups, and the K-of-N cells.
func smallConfig(seed int64) chaos.Config {
	forge, err := attack.ScenarioByName("forge-root-uid")
	if err != nil {
		panic(err)
	}
	flood, err := attack.ScenarioByName("malformed-flood")
	if err != nil {
		panic(err)
	}
	cfg := chaos.DefaultConfig(seed)
	cfg.Requests = 6
	cfg.Ns = []int{2}
	cfg.Workers = []int{1, 2}
	cfg.Stacks = []string{chaos.StackFull}
	cfg.Attacks = []attack.Scenario{chaos.NoAttack(), forge, flood}
	cfg.ByteSweep = false
	return cfg
}

// firstDiff reports the first line where two renderings diverge —
// go-cmp is not vendored in this module, so the comparison is
// byte-wise with a line-level report for debugging.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %q != %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}

func TestCampaignSameSeedByteIdenticalJSON(t *testing.T) {
	cfg := smallConfig(7)
	r1, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("same seed produced different matrices: %s", firstDiff(j1, j2))
	}
	if v := r1.Check(); len(v) > 0 {
		t.Fatalf("campaign contract violated: %v", v)
	}
}

func TestFaultOnlyCampaignZeroFalseAlarms(t *testing.T) {
	// The satellite contract: every transparent fault plan against
	// healthy full-stack groups at N ∈ {2,3,5}, W ∈ {1,4} must produce
	// zero alarms — the paper's transparency-under-benign-faults claim
	// swept across the whole chaos plan set.
	cfg := chaos.FaultOnlyConfig(3)
	cfg.Requests = 8
	r, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(chaos.TransparentPlans()) * len(cfg.Ns) * len(cfg.Workers)
	if len(r.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(r.Cells), wantCells)
	}
	for _, c := range r.Cells {
		if c.Detected {
			t.Errorf("false alarm under %s at n=%d w=%d: %s", c.Fault, c.N, c.Workers, c.AlarmReason)
		}
		if c.BenignOK == 0 {
			t.Errorf("no request survived %s at n=%d w=%d", c.Fault, c.N, c.Workers)
		}
	}
	if r.Summary.FalseAlarms != 0 {
		t.Errorf("summary.FalseAlarms = %d, want 0", r.Summary.FalseAlarms)
	}
	if v := r.Check(); len(v) > 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestCampaignCorpusDetectedAndBaselineLeaks(t *testing.T) {
	// Every corpus scenario against both stacks, fault-free: the full
	// stack must detect every detection-class attack with no defended
	// leak; the diversity baseline (no UID layer) must leak the secret
	// to the root-forging attack — the contrast that quantifies what
	// the data variation buys.
	cfg := chaos.Config{
		Seed:     5,
		Requests: 4,
		Ns:       []int{2},
		Workers:  []int{1},
		Stacks:   []string{chaos.StackFull, chaos.StackBaseline},
		Attacks:  attack.Corpus(),
		Faults:   []chaos.Plan{{Name: "none", Transparent: true}},
	}
	r, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baselineLeaked := false
	for _, c := range r.Cells {
		switch {
		case c.ExpectDetect && !c.Detected:
			t.Errorf("%s on %s: not detected", c.Attack, c.Stack)
		case c.Stack == chaos.StackFull && c.Leaked:
			t.Errorf("%s leaked from a defended group", c.Attack)
		case c.Attack == "malformed-flood" && c.Detected:
			t.Errorf("malformed flood raised a false alarm on %s: %s", c.Stack, c.AlarmReason)
		}
		if c.Stack == chaos.StackBaseline && c.Attack == "forge-root-uid" {
			baselineLeaked = c.Leaked
		}
	}
	if !baselineLeaked {
		t.Error("forge-root-uid did not leak from the undefended baseline stack — the attack itself is broken")
	}
}

func TestCampaignByteSweepNoCorruption(t *testing.T) {
	cfg := chaos.Config{
		Seed:      11,
		Ns:        []int{2, 4},
		ByteSweep: true,
	}
	r, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByteSweeps) != 3 { // paper pair + one per N
		t.Fatalf("byte-sweep rows = %d, want 3", len(r.ByteSweeps))
	}
	for _, b := range r.ByteSweeps {
		if b.Trials != 1024 {
			t.Errorf("%s n=%d: trials = %d, want 1024", b.Name, b.N, b.Trials)
		}
		if b.Corrupted != 0 {
			t.Errorf("%s n=%d: %d undetected corruptions", b.Name, b.N, b.Corrupted)
		}
		if b.Detected == 0 {
			t.Errorf("%s n=%d: nothing detected", b.Name, b.N)
		}
	}
}

// TestCampaignRejectsPoolOnlyPlans: a group cell has no pool to
// restart, so a plan whose only effect is RestartEvery would run as the
// "none" cell under another label; Run refuses it instead.
func TestCampaignRejectsPoolOnlyPlans(t *testing.T) {
	restart, err := chaos.PlanByName("group-restart")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.Config{
		Seed:    1,
		Ns:      []int{2},
		Workers: []int{1},
		Stacks:  []string{chaos.StackFull},
		Attacks: []attack.Scenario{chaos.NoAttack()},
		Faults:  []chaos.Plan{{Name: "none", Transparent: true}, restart},
	}
	if _, err := chaos.Run(cfg); err == nil {
		t.Fatal("campaign accepted a pool-only plan")
	}
}

// TestUndefendedCrossLaneLeakReplays: the cross-lane attack against a
// prefork group without the UID layer must leak on every run. Its
// trigger probes alternate with benign requests, so with two lanes a
// single attack round can land every trigger on the lane the payload
// did not corrupt; the leak flag replays only because every trigger
// scenario gets the same adaptive rounds.
func TestUndefendedCrossLaneLeakReplays(t *testing.T) {
	crossLane, err := attack.ScenarioByName("cross-lane-corruption")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.DefaultConfig(1)
	cfg.Ns = []int{2}
	cfg.Workers = []int{2}
	cfg.Stacks = []string{chaos.StackBaseline}
	cfg.Attacks = []attack.Scenario{crossLane}
	cfg.Faults = []chaos.Plan{{Name: "none", Transparent: true}}
	cfg.ByteSweep = false
	cfg.Quorum = 0
	for run := 0; run < 3; run++ {
		r, err := chaos.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Cells) != 1 || !r.Cells[0].Leaked {
			t.Fatalf("run %d: cells %+v, want one cell that leaked", run, r.Cells)
		}
	}
}
