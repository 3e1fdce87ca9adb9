package transform

import (
	"strings"
	"testing"

	"nvariant/internal/minic"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

func TestApplyImplicitConstant(t *testing.T) {
	// The paper's own example: if(!getuid()) becomes if(getuid()==0),
	// then the constant is reexpressed and the comparison becomes
	// cc_eq (§3.3, §3.5).
	src := `int main() {
    if (!getuid()) {
        log("root");
    }
    return 0;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	if !strings.Contains(out, "cc_eq(getuid(), 0x7FFFFFFF)") {
		t.Errorf("transformed source missing cc_eq with reexpressed constant:\n%s", out)
	}
	if res.Counts.ImplicitConstants != 1 || res.Counts.Constants != 1 || res.Counts.Comparisons != 1 {
		t.Errorf("counts = %+v", res.Counts)
	}
}

func TestApplyConstantReexpression(t *testing.T) {
	src := `uid_t admin = 1000;
int main() {
    uid_t u;
    u = getuid();
    if (u == admin) { return 1; }
    seteuid(0);
    return 0;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	// 1000 ^ 0x7FFFFFFF = 0x7FFFFC17.
	if !strings.Contains(out, "0x7FFFFC17") {
		t.Errorf("global constant not reexpressed:\n%s", out)
	}
	// seteuid(0) keeps its reexpressed constant but no uid_value (it
	// is a kernel call, already checked by the wrapper).
	if !strings.Contains(out, "seteuid(0x7FFFFFFF)") {
		t.Errorf("seteuid constant not reexpressed:\n%s", out)
	}
	if strings.Contains(out, "uid_value(seteuid") || strings.Contains(out, "seteuid(uid_value") {
		t.Errorf("kernel call wrongly wrapped:\n%s", out)
	}
}

func TestApplyUIDValueInsertion(t *testing.T) {
	src := `bool allowed(uid_t u) {
    return u != 0;
}
int main() {
    uid_t w;
    bool found;
    found = getpwnam("wwwrun");
    if (!found) { return 1; }
    w = pw_uid();
    if (allowed(w)) { return 0; }
    return 1;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	// pw_uid() is a library (non-kernel) source of UID data: wrapped.
	if !strings.Contains(out, "w = uid_value(pw_uid())") {
		t.Errorf("stored library UID not exposed:\n%s", out)
	}
	// UID argument to a user function: wrapped.
	if !strings.Contains(out, "allowed(uid_value(w))") {
		t.Errorf("uid argument not exposed:\n%s", out)
	}
	if res.Counts.UIDValues != 2 {
		t.Errorf("UIDValues = %d, want 2", res.Counts.UIDValues)
	}
}

func TestApplyCondChk(t *testing.T) {
	src := `int main() {
    bool found;
    int rc;
    found = getpwnam("wwwrun");
    if (!found) { return 1; }
    rc = seteuid(pw_uid());
    if (rc != 0) { return 2; }
    return 0;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	if !strings.Contains(out, "cond_chk((!found))") && !strings.Contains(out, "cond_chk(!found)") {
		t.Errorf("tainted bool condition not wrapped:\n%s", out)
	}
	if !strings.Contains(out, "cond_chk((rc != 0))") {
		t.Errorf("tainted int condition not wrapped:\n%s", out)
	}
	if res.Counts.CondChks != 2 {
		t.Errorf("CondChks = %d, want 2", res.Counts.CondChks)
	}
}

func TestApplyLogScrub(t *testing.T) {
	src := `int main() {
    uid_t u;
    u = getuid();
    log_uid("denied", u);
    return 0;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	if strings.Contains(out, "log_uid") {
		t.Errorf("log_uid not scrubbed:\n%s", out)
	}
	if !strings.Contains(out, `log("denied")`) {
		t.Errorf("scrubbed log call missing:\n%s", out)
	}
	if res.Counts.LogScrubs != 1 {
		t.Errorf("LogScrubs = %d, want 1", res.Counts.LogScrubs)
	}
}

func TestApplyOrderedComparisonBecomesCCLt(t *testing.T) {
	// §3.5 advantage (2): rewriting to cc_lt keeps the instruction
	// streams identical; a local comparison would need reversal under
	// the XOR mask.
	src := `int main() {
    uid_t u;
    u = getuid();
    if (u < 100) { return 1; }
    return 0;
}
`
	res, err := Apply(src, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Program.Emit()
	if !strings.Contains(out, "cc_lt(u, 0x7FFFFF9B)") {
		t.Errorf("ordered comparison not rewritten:\n%s", out)
	}
}

func TestIdentityTransformKeepsValues(t *testing.T) {
	// Variant 0 uses R₀ = identity: same change structure, unchanged
	// constants — "the original program can be used unchanged" modulo
	// the detection-call insertion the paper also applies to P0.
	res0, err := Apply(SampleServerSource, reexpress.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Apply(SampleServerSource, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Counts != res1.Counts {
		t.Errorf("counts differ between variants: %+v vs %+v", res0.Counts, res1.Counts)
	}
	if strings.Contains(res0.Program.Emit(), "0x7FFF") {
		t.Error("identity variant has reexpressed constants")
	}
}

func TestSampleCountsInPaperBallpark(t *testing.T) {
	res, err := Apply(SampleServerSource, reexpress.XORMask{Mask: reexpress.UIDMask})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	paper := PaperCounts()
	t.Logf("measured counts: %+v (total %d); paper: %+v (total 73)", c, c.Total(), paper)
	check := func(name string, got, paperN int) {
		if got < paperN/3 || got > paperN*3 {
			t.Errorf("%s = %d; out of ballpark vs paper's %d", name, got, paperN)
		}
	}
	check("Constants", c.Constants, paper.Constants)
	check("UIDValues", c.UIDValues, paper.UIDValues)
	check("Comparisons", c.Comparisons, paper.Comparisons)
	check("CondChks", c.CondChks, paper.CondChks)
	if c.LogScrubs != 1 {
		t.Errorf("LogScrubs = %d, want 1 (the paper's log workaround)", c.LogScrubs)
	}
}

// runVariants builds 2 transformed variants of src and runs them under
// the UID variation with diversified passwd files.
func runVariants(t *testing.T, src string, opts minic.InterpOptions) *nvkernel.Result {
	t.Helper()
	pair := reexpress.UIDVariation().Pair
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	if err := nvkernel.SetupUnsharedPasswd(world, pair.Funcs()); err != nil {
		t.Fatal(err)
	}
	compiled, err := BuildVariants("unixd", src, pair.Funcs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	progs := []sys.Program{compiled[0].Program, compiled[1].Program}
	res, err := nvkernel.Run(world, simnet.New(0), progs,
		nvkernel.WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(pair.Funcs()...))),
		nvkernel.WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTransformedSampleNormalEquivalence(t *testing.T) {
	// The §2.2 property end to end: the automatically transformed
	// server runs as a 2-variant group on benign input with NO
	// divergence, even though every UID it handles has different
	// concrete representations in the two variants.
	res := runVariants(t, SampleServerSource, minic.InterpOptions{})
	if !res.Clean {
		t.Fatalf("normal equivalence violated: %+v (stderr %q)", res.Alarm, res.Stderr)
	}
	if res.Status != 0 {
		t.Fatalf("status = %d, want 0 (stderr %q)", res.Status, res.Stderr)
	}
}

func TestTransformedSampleDetectsCorruption(t *testing.T) {
	// The §2.3 property end to end: corrupt worker_uid with the same
	// concrete word in both variants (as any input-driven overflow
	// must) — the monitor kills the group at the first detection call.
	res := runVariants(t, SampleServerSource, minic.InterpOptions{
		CorruptOnAssign: map[string]word.Word{"worker_uid": 0},
	})
	if res.Alarm == nil {
		t.Fatalf("corruption not detected (status %d)", res.Status)
	}
	if res.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Errorf("alarm = %+v, want uid-divergence", res.Alarm)
	}
}

func TestUntransformedSampleEscalatesOnPlainKernel(t *testing.T) {
	// Baseline: the same corruption against the untransformed program
	// on a plain kernel silently succeeds (this is the Chen-et-al
	// attack the variation exists to stop). The corrupted worker_uid
	// of 0 makes become_worker run the suexec path; is_superuser sees
	// uid 0 and rejects — so instead corrupt to a "legitimate-looking"
	// non-server uid that passes suexec: alice (1000), stealing her
	// identity.
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	ast, err := minic.Parse(SampleServerSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.CompileAST("unixd", ast, minic.InterpOptions{
		CorruptOnAssign: map[string]word.Word{"worker_uid": 1000, "worker_gid": 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvkernel.Run(world, simnet.New(0), []sys.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	stderr := string(res.Stderr)
	// All eight requests must have been served under the stolen
	// identity: no per-request rejection appears in the log. The
	// server's own shutdown-time integrity check notices the drift
	// afterwards — detection after the damage, not prevention, which
	// is precisely the gap the N-variant UID variation closes.
	if strings.Contains(stderr, "rejected worker identity") ||
		strings.Contains(stderr, "request handling failed") {
		t.Fatalf("masquerade was blocked per-request: %q", stderr)
	}
	if !strings.Contains(stderr, "identity drift detected") {
		t.Fatalf("expected the late drift check to fire: %q", stderr)
	}
	if res.Alarm != nil {
		t.Fatalf("plain kernel should raise no alarm: %+v", res.Alarm)
	}
}

func TestTransformedVariantSourcesDiffer(t *testing.T) {
	pair := reexpress.UIDVariation().Pair
	r0, err := Apply(SampleServerSource, pair.R0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Apply(SampleServerSource, pair.R1)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Program.Emit() == r1.Program.Emit() {
		t.Error("variant sources identical; constants not diversified")
	}
}

func TestBuildVariantsCompileError(t *testing.T) {
	if _, err := BuildVariants("x", "int main() {", []reexpress.Func{reexpress.Identity{}}, minic.InterpOptions{}); err == nil {
		t.Error("bad source accepted")
	}
}

func TestCountsTotal(t *testing.T) {
	c := Counts{Constants: 1, UIDValues: 2, Comparisons: 3, CondChks: 4, LogScrubs: 5}
	if c.Total() != 15 {
		t.Errorf("Total = %d, want 15", c.Total())
	}
	if PaperCounts().Total() != 73 {
		t.Errorf("paper total = %d, want 73", PaperCounts().Total())
	}
}

func TestTransformedSourceReparses(t *testing.T) {
	// The transformed program must be valid minic source: emit it,
	// re-parse it, re-check it, and get the same emission back (the
	// transformer's output is a real program, not just an AST trick).
	for _, f := range []reexpress.Func{
		reexpress.Identity{},
		reexpress.XORMask{Mask: reexpress.UIDMask},
		reexpress.XORMask{Mask: reexpress.FullFlipMask},
	} {
		res, err := Apply(SampleServerSource, f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		emitted := res.Program.Emit()
		reparsed, err := minic.Parse(emitted)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", f.Name(), err, emitted)
		}
		if _, err := minic.Check(reparsed); err != nil {
			t.Fatalf("%s: recheck: %v", f.Name(), err)
		}
		if reparsed.Emit() != emitted {
			t.Errorf("%s: emit not a fixed point", f.Name())
		}
	}
}

func TestTransformIdempotentCounts(t *testing.T) {
	// Applying the transformer twice must not double-wrap: detection
	// calls are recognized and skipped, so a second pass changes only
	// constants (which re-reexpress, since the source carries no type
	// provenance) and nothing structural.
	r1, err := Apply(SampleServerSource, reexpress.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Apply(r1.Program.Emit(), reexpress.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counts.Comparisons != 0 {
		t.Errorf("second pass rewrote %d comparisons; cc_* not recognized", r2.Counts.Comparisons)
	}
	if r2.Counts.LogScrubs != 0 {
		t.Errorf("second pass scrubbed %d logs", r2.Counts.LogScrubs)
	}
}
