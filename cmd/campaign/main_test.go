package main

import (
	"reflect"
	"strings"
	"testing"

	"nvariant/internal/chaos"
)

// TestParseArgsRejectsWrongModeFlags: a flag of one matrix set in the
// other mode is an error, never silently ignored.
func TestParseArgsRejectsWrongModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mesh", "-n", "2"}, "-n"},
		{[]string{"-mesh", "-workers", "1"}, "-workers"},
		{[]string{"-mesh", "-stacks", "addr+files"}, "-stacks"},
		{[]string{"-mesh", "-fault-only"}, "-fault-only"},
		{[]string{"-no-bytesweep", "-mesh"}, "-no-bytesweep"},
		{[]string{"-pools", "2"}, "-pools"},
		{[]string{"-rotations", "on"}, "-rotations"},
	} {
		if _, err := parseArgs(tc.args); err == nil {
			t.Errorf("parseArgs(%q) succeeded, want a mode error", tc.args)
		} else if !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("parseArgs(%q) error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestParseArgsMeshSingleCell: the narrowing flags CI's replay uses
// yield a pool-matrix config of exactly that one cell, leaving every
// other knob to the campaign's defaults.
func TestParseArgsMeshSingleCell(t *testing.T) {
	inv, err := parseArgs([]string{"-mesh", "-seed", "1", "-pools", "2", "-rotations", "on",
		"-faults", "net-mixed", "-attacks", "forge-uid", "-check"})
	if err != nil {
		t.Fatal(err)
	}
	if inv.mesh == nil {
		t.Fatal("-mesh did not select the pool matrix")
	}
	cfg := *inv.mesh
	want, err := chaos.PlanByName("net-mixed")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || !reflect.DeepEqual(cfg.Pools, []int{2}) || !reflect.DeepEqual(cfg.Rotations, []bool{true}) ||
		!reflect.DeepEqual(cfg.Faults, []chaos.Plan{want}) || !reflect.DeepEqual(cfg.Attacks, []string{"forge-uid"}) {
		t.Errorf("narrowed config = %+v", cfg)
	}
	if cfg.Requests != 0 || cfg.Groups != 0 || cfg.RotateEvery != 0 || cfg.Probes != 0 || cfg.RetryBudget != 0 {
		t.Errorf("narrowing set a knob the campaign defaults: %+v", cfg)
	}
	if !inv.check {
		t.Error("-check lost")
	}
}

// TestParseArgsDefaults: without narrowing flags the pool matrix keeps
// the campaign's own sweep, and the group matrix is chaos.DefaultConfig.
func TestParseArgsDefaults(t *testing.T) {
	inv, err := parseArgs([]string{"-mesh"})
	if err != nil {
		t.Fatal(err)
	}
	if c := inv.mesh; c.Pools != nil || c.Rotations != nil || c.Faults != nil || c.Attacks != nil {
		t.Errorf("unnarrowed pool config = %+v, want every sweep list empty", *c)
	}
	inv, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv.mesh != nil {
		t.Fatal("group run selected the pool matrix")
	}
	def := chaos.DefaultConfig(1)
	if g := inv.group; g.Seed != 1 || !reflect.DeepEqual(g.Ns, def.Ns) || !reflect.DeepEqual(g.Workers, def.Workers) ||
		!reflect.DeepEqual(g.Faults, def.Faults) || len(g.Attacks) != len(def.Attacks) || !g.ByteSweep || g.Quorum != def.Quorum {
		t.Errorf("group config = %+v, want chaos.DefaultConfig(1)", g)
	}
	if _, err := parseArgs([]string{"-mesh", "-rotations", "sideways"}); err == nil {
		t.Error("bad -rotations value accepted")
	}
}
