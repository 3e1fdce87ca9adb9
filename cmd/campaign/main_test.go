package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	if cfg.Requests != 0 {
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

// TestMatricesMatchGoldens: each matrix's JSON equals its committed
// golden in testdata byte for byte, so a change to a matrix's bytes or
// schema fails here as well as in CI's replay steps. The group seed-1
// matrix (seed1.json) takes half a minute and is compared in CI only.
// Regenerate a golden with the same arguments when a change is meant
// to move its bytes.
func TestMatricesMatchGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"seed1-fault-only.json", []string{"-seed", "1", "-fault-only"}},
		{"mesh-seed1-exposure.json", []string{"-mesh", "-seed", "1", "-faults", "none", "-pools", "1,2,4"}},
		{"mesh-seed1.json", []string{"-mesh", "-seed", "1"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".json"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(tc.args, &got); err != nil {
				t.Fatalf("campaign %s: %v", strings.Join(tc.args, " "), err)
			}
			if diff := firstDiff(got.Bytes(), want); diff != "" {
				t.Errorf("campaign %s differs from testdata/%s: %s", strings.Join(tc.args, " "), tc.golden, diff)
			}
		})
	}
}

// firstDiff describes the first line where got and want differ, or
// returns "" when they are equal.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d (one is a prefix of the other)", len(g), len(w))
}
