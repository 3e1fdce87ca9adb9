package mesh

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
	"nvariant/internal/fleet"
	"nvariant/internal/harness"
	"nvariant/internal/httpd"
	"nvariant/internal/obs"
	"nvariant/internal/vos"
)

// testChaosConfig is the reduced sweep the determinism tests replay:
// P ∈ {1,2,4} and both rotation settings, but only the fault plans
// that exercise distinct machinery (control, lossy wire, group crash,
// variant crash under quorum) so the double-run stays fast under -race.
func testChaosConfig(seed int64) ChaosCampaignConfig {
	return ChaosCampaignConfig{
		Seed:     seed,
		Requests: 12,
		Pools:    []int{1, 2, 4},
		Groups:   2,
		Probes:   1,
		Faults:   testChaosPlans(),
	}
}

func testChaosPlans() []chaos.Plan {
	var out []chaos.Plan
	for _, name := range []string{"none", "net-mixed", "group-restart", "variant-crash"} {
		p, err := chaos.PlanByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// TestChaosCampaignByteIdentical: the same seed reproduces the unified
// mesh×chaos matrix byte for byte — every retry, re-route, backoff
// tick, restart, availability ratio, and exposure-window vtick is a
// function of the seed alone.
// The CI mesh-chaos-smoke job replays this cross-process via
// cmd/meshbench; this test pins it in-tree.
func TestChaosCampaignByteIdentical(t *testing.T) {
	cfg := testChaosConfig(42)
	r1, err := RunChaosCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChaosCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := r2.JSON()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed chaos campaign not byte-identical:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
	if v := r1.Check(); len(v) != 0 {
		t.Fatalf("campaign contract violations: %v\n%s", v, b1)
	}
	// The lossy plan must have exercised the retry machinery somewhere
	// in the matrix — a sweep where net-mixed needed zero retries is
	// not stressing anything.
	var lossyRetries uint64
	for _, c := range r1.Cells {
		if c.Fault == "net-mixed" {
			lossyRetries += c.Retries
		}
	}
	if lossyRetries == 0 {
		t.Error("net-mixed cells needed no retries — the sweep is not exercising recovery")
	}

	// The exposure windows' shape: rotation-on cells sampled exposure
	// windows wherever sampling replays (plans without reorder);
	// rotation-off benign control cells must have none (their exposure
	// is unbounded — the point of rotation).
	reorders := make(map[string]bool)
	for _, p := range cfg.Faults {
		reorders[p.Name] = p.Net != nil && p.Net.ReorderRate > 0
	}
	for _, c := range r1.Cells {
		id := fmt.Sprintf("cell p=%d rotation=%t fault=%s attack=%s", c.Pools, c.Rotation, c.Fault, c.Attack)
		switch {
		case c.Rotation && !reorders[c.Fault] && c.ExposureSamples == 0:
			t.Errorf("%s: no exposure samples", id)
		case !c.Rotation && c.Fault == "none" && c.Attack == "none" && c.ExposureSamples != 0:
			t.Errorf("%s: %d exposure samples, want 0", id, c.ExposureSamples)
		}
		if c.ExposureP99 < c.ExposureP50 {
			t.Errorf("%s: exposure P99 %d < P50 %d", id, c.ExposureP99, c.ExposureP50)
		}
	}
}

// TestChaosCampaignNarrowedCellParity: narrowing the sweep (the
// meshbench -chaos rerun flags) replays single cells bit-for-bit,
// because cell seeds derive from cell labels rather than sweep
// position.
func TestChaosCampaignNarrowedCellParity(t *testing.T) {
	full, err := RunChaosCampaign(testChaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	narrowed := testChaosConfig(7)
	narrowed.Pools = []int{2}
	narrowed.Rotations = []bool{true}
	narrowed.Faults = []chaos.Plan{mustPlan(t, "net-mixed")}
	narrowed.Attacks = []string{"forge-uid"}
	sub, err := RunChaosCampaign(narrowed)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cells) != 1 {
		t.Fatalf("narrowed run produced %d cells, want 1", len(sub.Cells))
	}
	want := findChaosCell(t, full, 2, true, "net-mixed", "forge-uid")
	if !reflect.DeepEqual(sub.Cells[0], want) {
		t.Errorf("narrowed cell diverged from the full matrix:\nfull:     %+v\nnarrowed: %+v", want, sub.Cells[0])
	}
}

func mustPlan(t *testing.T, name string) chaos.Plan {
	t.Helper()
	p, err := chaos.PlanByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func findChaosCell(t *testing.T, r *ChaosCampaignResult, pools int, rotation bool, fault, attack string) ChaosCell {
	t.Helper()
	for _, c := range r.Cells {
		if c.Pools == pools && c.Rotation == rotation && c.Fault == fault && c.Attack == attack {
			return c
		}
	}
	t.Fatalf("cell p=%d rotation=%t fault=%s attack=%s not in matrix", pools, rotation, fault, attack)
	return ChaosCell{}
}

// TestChaosCampaignInstrumentationPreservesJSON: attaching an obs
// registry must not perturb the matrix — metrics record wall-clock
// data outside the deterministic output — and the registry must carry
// the dispatch, rotation, exposure, retry and health metric families
// afterwards.
func TestChaosCampaignInstrumentationPreservesJSON(t *testing.T) {
	cfg := ChaosCampaignConfig{
		Seed:     17,
		Requests: 8,
		Pools:    []int{2},
		Groups:   2,
		Probes:   1,
		Faults:   testChaosPlans(),
	}
	plain, err := RunChaosCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	instr, err := RunChaosCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := plain.JSON()
	ib, _ := instr.JSON()
	if !bytes.Equal(pb, ib) {
		t.Fatalf("instrumentation changed the matrix:\n--- plain ---\n%s\n--- instrumented ---\n%s", pb, ib)
	}
	var text bytes.Buffer
	if err := cfg.Obs.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"mesh_dispatched_total", "mesh_rotations_total", "mesh_exposure_window_seconds", "mesh_pool_healthy_groups",
		"mesh_retries_total", "mesh_reroutes_total", "mesh_retry_backoff_ticks", "mesh_pool_health",
	} {
		if !bytes.Contains(text.Bytes(), []byte(family)) {
			t.Errorf("registry missing %s after instrumented chaos campaign", family)
		}
	}
}

// TestChaosCampaignRejectsBadConfig: the unified campaign refuses the
// configurations it cannot run faithfully: a pool count below 1
// (mesh.New would silently run its default under a cell labelled 0)
// and an unknown attack mode (which would run as a benign cell under
// the attack's label).
func TestChaosCampaignRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		modify func(*ChaosCampaignConfig)
	}{
		{"pools-0", func(c *ChaosCampaignConfig) { c.Pools = []int{1, 0} }},
		{"pools-negative", func(c *ChaosCampaignConfig) { c.Pools = []int{-2} }},
		{"attack-bogus", func(c *ChaosCampaignConfig) { c.Attacks = []string{"none", "bogus"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testChaosConfig(1)
			tc.modify(&cfg)
			if _, err := RunChaosCampaign(cfg); err == nil {
				t.Fatal("campaign accepted the configuration")
			}
		})
	}
}

// TestChaosCampaignCheckFlagsViolations: Check is the CI gate — make
// sure each contract clause actually fires on a bad matrix.
func TestChaosCampaignCheckFlagsViolations(t *testing.T) {
	r := &ChaosCampaignResult{
		RetryBackoff: 2,
		Cells: []ChaosCell{
			// availability floor + retries in the no-fault control
			{Pools: 1, Fault: "none", Attack: "none", Availability: 0.5, Retries: 3, BackoffTicks: 6},
			// backoff/reroutes without retries
			{Pools: 1, Fault: "net-mixed", Attack: "none", Availability: 1, BackoffTicks: 4},
			// under-charged backoff
			{Pools: 1, Fault: "net-mixed", Attack: "none", Availability: 1, Retries: 4, BackoffTicks: 2},
			// reroutes exceeding retries
			{Pools: 2, Fault: "net-mixed", Attack: "none", Availability: 1, Retries: 1, BackoffTicks: 2, Reroutes: 3},
			// rotation counted while disabled + restart plan without restarts
			{Pools: 1, Rotation: false, Fault: "group-restart", Attack: "none", Availability: 1, Rotations: 2},
			// rotation enabled but never ran, missed detection, false alarm, leak
			{Pools: 1, Rotation: true, Fault: "none", Attack: "forge-uid", Availability: 1,
				Probes: 2, Detections: 1, MissedDetection: true, FalseAlarm: true, Leaked: true},
			// variant-fault plan without an eviction
			{Pools: 1, Fault: "variant-crash", Attack: "none", Availability: 1},
			// eviction not respawned
			{Pools: 1, Fault: "variant-stall", Attack: "none", Availability: 1, Evictions: 2, Respawned: 1},
			// eviction under a plan without a variant fault
			{Pools: 1, Fault: "net-mixed", Attack: "none", Availability: 1, Evictions: 1, Respawned: 1},
		},
	}
	v := r.Check()
	want := 14
	if len(v) != want {
		t.Fatalf("Check found %d violations, want %d:\n%v", len(v), want, v)
	}
}

// TestStrikeSparesRecycledPort: a strike whose victim has already left
// the pool must stop, not hit the replacement that took over the
// victim's recycled port. Under a lossy plan the kill can surface as a
// dropped exchange instead of a refused dial, and the old strike went
// on to corrupt the replacement — an extra detection the campaign
// counted as a false alarm.
func TestStrikeSparesRecycledPort(t *testing.T) {
	f, err := fleet.New(fleet.Options{
		Groups: 2,
		Config: harness.Config4UIDVariation,
		Server: httpd.DefaultOptions(),
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = f.Stop() }()
	victim := f.OldestGroupID()
	port, ok := healthyPort(f.Stats(), victim)
	if !ok || !f.ShutdownGroup(victim) {
		t.Fatalf("could not shut down group %d", victim)
	}
	replacement := -1
	if err := f.Await(func(s fleet.Stats) bool {
		for _, g := range s.Healthy {
			if g.Port == port && g.ID != victim {
				replacement = g.ID
				return true
			}
		}
		return false
	}, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	detected, leaked := strikeGroup(f, victim, port, attack.ForgeUIDPayload(vos.Root))
	if !detected || leaked {
		t.Errorf("strike on a departed victim: detected=%v leaked=%v, want true/false", detected, leaked)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 0 {
		t.Errorf("detections = %d, want 0: the strike hit the replacement on port %d", stats.Detections, port)
	}
	if _, ok := healthyPort(stats, replacement); !ok {
		t.Errorf("replacement group %d left the pool", replacement)
	}
}
