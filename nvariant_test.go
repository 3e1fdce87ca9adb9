package nvariant

import (
	"strings"
	"testing"

	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
)

func TestFacadeUIDVariationDetection(t *testing.T) {
	spec, err := SpecFromVariation(UIDVariation())
	if err != nil {
		t.Fatal(err)
	}
	world, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		t.Fatal(err)
	}

	forged := ProgramFunc{ProgName: "forged", Fn: func(ctx *Context) error {
		if err := ctx.Setuid(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}
	res, err := Run(world, NewNetwork(0), []Program{forged, forged},
		WithSpec(spec),
		WithUnsharedFiles("/etc/passwd", "/etc/group"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() {
		t.Fatal("forged setuid not detected through the facade")
	}
	if res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Errorf("reason = %v, want uid-divergence", res.Alarm.Reason)
	}
}

func TestFacadeConfigurationLifecycle(t *testing.T) {
	h, err := StartConfiguration(Config4UIDVariation, HTTPServerOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := h.Client()
	code, body, err := client.Get("/index.html")
	if err != nil || code != 200 {
		t.Fatalf("GET = %d, %v", code, err)
	}
	if !strings.Contains(string(body), "It works!") {
		t.Errorf("body = %q", body)
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("alarm: %v", res.Alarm)
	}
}

func TestFacadeTransformAndRun(t *testing.T) {
	spec, err := SpecFromVariation(UIDVariation())
	if err != nil {
		t.Fatal(err)
	}
	res, err := TransformMinic(SampleServerSource, spec.UIDFuncs()[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() == 0 {
		t.Error("no changes reported")
	}

	world, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		t.Fatal(err)
	}
	progs, err := BuildMinicVariants("unixd", SampleServerSource, spec.UIDFuncs(), MinicInterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(world, NewNetwork(0), progs,
		WithSpec(spec),
		WithUnsharedFiles("/etc/passwd", "/etc/group"))
	if err != nil {
		t.Fatal(err)
	}
	if !run.Clean || run.Status != 0 {
		t.Fatalf("transformed variants: clean=%v status=%d alarm=%v", run.Clean, run.Status, run.Alarm)
	}
}

func TestFacadeCompileMinic(t *testing.T) {
	// One identity variant: BuildMinicVariants is the facade's mini-C
	// compiler, transforming nothing.
	progs, err := BuildMinicVariants("hello", `int main() { log("hi"); return 0; }`,
		[]ReexpressionFunc{reexpress.Identity{}}, MinicInterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	world, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(world, NewNetwork(0), progs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || !strings.Contains(string(res.Stderr), "hi") {
		t.Errorf("clean=%v stderr=%q", res.Clean, res.Stderr)
	}
}

func TestFacadeTable1(t *testing.T) {
	rows := reexpress.Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	if rows[3].Name != UIDVariation().Name {
		t.Errorf("row 4 = %q, facade UIDVariation = %q", rows[3].Name, UIDVariation().Name)
	}
	// The facade exposes the Pair math directly.
	r1 := UIDVariation().Pair.R1
	rep, err := r1.Apply(0)
	if err != nil || rep != 0x7FFFFFFF {
		t.Errorf("R1(0) = %v, %v", rep, err)
	}
}

func TestFacadeHTTPVariants(t *testing.T) {
	spec, err := SpecFromVariation(UIDVariation())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := httpd.BuildVariants(HTTPServerOptions{}, spec.UIDFuncs())
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("variants = %d", len(progs))
	}
}

func TestFacadeRootCred(t *testing.T) {
	cred := RootCred()
	if cred.EUID != 0 || cred.RUID != 0 {
		t.Errorf("RootCred = %+v", cred)
	}
	world, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := world.FS.ReadFile("/var/www/private/secret.html", cred); err != nil {
		t.Errorf("root cannot read the secret: %v", err)
	}
}

func TestFacadeDiversitySpecQuickstart(t *testing.T) {
	// The package-doc quick start: an N=3 generated spec, a forged-UID
	// injection, detection through the facade.
	spec := reexpress.Generate(42, 3)
	if spec.N() != 3 {
		t.Fatalf("spec N = %d", spec.N())
	}
	world, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupUnsharedPasswd(world, spec.UIDFuncs()); err != nil {
		t.Fatal(err)
	}
	forged := ProgramFunc{ProgName: "forged", Fn: func(ctx *Context) error {
		if err := ctx.Setuid(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}}
	res, err := Run(world, NewNetwork(0), []Program{forged, forged, forged},
		WithSpec(spec),
		WithUnsharedFiles("/etc/passwd", "/etc/group"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected() || res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Fatalf("3-variant forged setuid not detected: %+v", res.Alarm)
	}
}

func TestFacadeExplicitSpecConstruction(t *testing.T) {
	spec, err := reexpress.NewSpec(2,
		reexpress.UIDLayer(UIDVariation().Pair.R0, UIDVariation().Pair.R1),
		reexpress.AddressPartitionLayer(2),
		reexpress.UnsharedFilesLayer("/etc/passwd", "/etc/group"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.StackString(); got != "uid+address-partition+unshared-files" {
		t.Errorf("stack = %q", got)
	}
	if _, err := reexpress.NewSpec(2, reexpress.UIDLayer(UIDVariation().Pair.R0, UIDVariation().Pair.R0)); err == nil {
		t.Error("disjointness-violating spec accepted")
	}
	fromRow, err := SpecFromVariation(UIDVariation())
	if err != nil || fromRow.N() != 2 {
		t.Fatalf("SpecFromVariation: %v", err)
	}
	kinds, err := ParseStack("uid,addr")
	if err != nil || len(kinds) != 2 || kinds[0] != reexpress.LayerUID || kinds[1] != reexpress.LayerAddressPartition {
		t.Fatalf("ParseStack: %v %v", kinds, err)
	}
}

func TestFacadeFleetWithVariants(t *testing.T) {
	f, err := NewFleet(FleetOptions{Groups: 2, Variants: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = f.Stop() }()
	if code, _, err := f.Client().Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("GET = %d, %v", code, err)
	}
	for _, g := range f.Stats().Healthy {
		if g.Variants != 3 {
			t.Errorf("group %d variants = %d", g.ID, g.Variants)
		}
	}
}
