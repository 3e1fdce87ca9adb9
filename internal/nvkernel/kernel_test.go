package nvkernel

import (
	"strings"
	"testing"
	"time"

	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// prog builds a named sys.Program from a function.
func prog(name string, fn func(ctx *sys.Context) error) sys.Program {
	return sys.ProgramFunc{ProgName: name, Fn: fn}
}

// same returns n copies of the same program body (the untransformed
// case: both variants run identical code and identical constants).
func same(n int, name string, fn func(ctx *sys.Context) error) []sys.Program {
	progs := make([]sys.Program, n)
	for i := range progs {
		progs[i] = prog(name, fn)
	}
	return progs
}

func newWorld(t *testing.T) *vos.World {
	t.Helper()
	w, err := vos.NewWorld()
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

// withUIDFuncs configures an unchecked single-UID-layer spec, so tests
// can install property-violating or mismatched functions.
func withUIDFuncs(funcs ...reexpress.Func) Option {
	return WithSpec(reexpress.UncheckedSpec(len(funcs), reexpress.UIDLayer(funcs...)))
}

// vtime issues the time syscall, whose virtual timestamp every
// variant agrees on.
func vtime(ctx *sys.Context) (word.Word, error) {
	return ctx.Syscall(sys.Call{Num: sys.Time})
}

func mustRun(t *testing.T, w *vos.World, progs []sys.Program, opts ...Option) *Result {
	t.Helper()
	res, err := Run(w, simnet.New(0), progs, opts...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleVariantHelloWorld(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(1, "hello", func(ctx *sys.Context) error {
		if err := ctx.WriteString(sys.FDStdout, "hello world\n"); err != nil {
			return err
		}
		return ctx.Exit(0)
	}))
	if !res.Clean {
		t.Fatalf("not clean: %+v alarm=%v", res, res.Alarm)
	}
	if string(res.Stdout) != "hello world\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestTwoVariantsNormalEquivalence(t *testing.T) {
	// Identical variants on normal input must not alarm (§2.2).
	w := newWorld(t)
	res := mustRun(t, w, same(2, "equiv", func(ctx *sys.Context) error {
		uid, err := ctx.Getuid()
		if err != nil {
			return err
		}
		if _, err := ctx.UIDValue(uid); err != nil {
			return err
		}
		if err := ctx.WriteString(sys.FDStdout, "ok\n"); err != nil {
			return err
		}
		return ctx.Exit(0)
	}))
	if !res.Clean {
		t.Fatalf("alarm on normal execution: %v", res.Alarm)
	}
	if string(res.Stdout) != "ok\n" {
		t.Errorf("stdout = %q (output must be performed once)", res.Stdout)
	}
}

func TestImplicitExitZero(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(2, "fallthrough", func(ctx *sys.Context) error {
		return nil // no explicit Exit: kernel synthesizes exit(0)
	}))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("implicit exit: clean=%v status=%d alarm=%v", res.Clean, res.Status, res.Alarm)
	}
}

func TestUIDVariationRoundTrip(t *testing.T) {
	// Under the UID variation, getuid returns different concrete
	// values per variant; feeding them back through setuid must
	// canonicalize to the same real UID with no alarm.
	w := newWorld(t)
	res := mustRun(t, w, same(2, "roundtrip", func(ctx *sys.Context) error {
		uid, err := ctx.Getuid()
		if err != nil {
			return err
		}
		if err := ctx.Setuid(uid); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), withUIDFuncs(reexpress.UIDVariation().Pair.Funcs()...))
	if !res.Clean {
		t.Fatalf("round trip alarmed: %v", res.Alarm)
	}
}

func TestUIDVariationGetuidValuesDiffer(t *testing.T) {
	// Observe each variant's reexpressed UID via per-variant unshared
	// log files: variant 0 must see 0, variant 1 must see 0x7FFFFFFF
	// (root under R₁, §3.2).
	w := newWorld(t)
	root := vos.CredFor(vos.Root, 0)
	for i := 0; i < 2; i++ {
		if err := w.FS.WriteFile(UnsharedPath("/tmp/uid", i), nil, 0644, root); err != nil {
			t.Fatal(err)
		}
	}
	res := mustRun(t, w, same(2, "observe", func(ctx *sys.Context) error {
		uid, err := ctx.Getuid()
		if err != nil {
			return err
		}
		fd, err := ctx.Open("/tmp/uid", vos.WriteOnly, 0)
		if err != nil {
			return err
		}
		if err := ctx.WriteString(fd, uid.String()); err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		return ctx.Exit(0)
	}),
		withUIDFuncs(reexpress.UIDVariation().Pair.Funcs()...),
		WithUnsharedFiles("/tmp/uid"),
	)
	if !res.Clean {
		t.Fatalf("alarm: %v", res.Alarm)
	}
	v0, err := w.FS.ReadFile("/tmp/uid-0", root)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := w.FS.ReadFile("/tmp/uid-1", root)
	if err != nil {
		t.Fatal(err)
	}
	if string(v0) != "0x00000000" {
		t.Errorf("variant 0 uid = %s, want 0x00000000", v0)
	}
	if string(v1) != "0x7FFFFFFF" {
		t.Errorf("variant 1 uid = %s, want 0x7FFFFFFF", v1)
	}
}

func TestUIDDivergenceDetected(t *testing.T) {
	// The detection property (§2.3): an attacker-injected identical
	// concrete UID (here the untransformed constant 0 in both
	// variants) decodes differently and must raise an alarm.
	w := newWorld(t)
	res := mustRun(t, w, same(2, "injected", func(ctx *sys.Context) error {
		if _, err := ctx.UIDValue(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), withUIDFuncs(reexpress.UIDVariation().Pair.Funcs()...))
	if res.Alarm == nil {
		t.Fatal("identical injected UID not detected")
	}
	if res.Alarm.Reason != ReasonUIDDivergence {
		t.Errorf("reason = %v, want uid-divergence", res.Alarm.Reason)
	}
	if res.Alarm.Syscall != "uid_value" {
		t.Errorf("syscall = %q, want uid_value", res.Alarm.Syscall)
	}
}

func TestSetuidInjectedRootDetected(t *testing.T) {
	// The headline attack shape: corrupted data reaches setuid as the
	// same concrete value 0 in both variants. Variant 1's inverse
	// turns it into 0x7FFFFFFF, so the monitor sees divergent
	// canonical UIDs and kills the group before the call proceeds.
	w := newWorld(t)
	res := mustRun(t, w, same(2, "forge-root", func(ctx *sys.Context) error {
		if err := ctx.Setuid(0); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), withUIDFuncs(reexpress.UIDVariation().Pair.Funcs()...))
	if res.Alarm == nil || res.Alarm.Reason != ReasonUIDDivergence {
		t.Fatalf("alarm = %v, want uid-divergence", res.Alarm)
	}
	// The real credentials must be untouched.
	if res.Clean {
		t.Error("run reported clean despite alarm")
	}
}

func TestCondChkDivergenceDetected(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("cond", func(ctx *sys.Context) error {
			if _, err := ctx.CondChk(true); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("cond", func(ctx *sys.Context) error {
			if _, err := ctx.CondChk(false); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil || res.Alarm.Reason != ReasonCondDivergence {
		t.Fatalf("alarm = %v, want cond-divergence", res.Alarm)
	}
}

func TestSyscallMismatchDetected(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("a", func(ctx *sys.Context) error {
			if _, err := ctx.Getuid(); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("b", func(ctx *sys.Context) error {
			if _, err := vtime(ctx); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil || res.Alarm.Reason != ReasonSyscallMismatch {
		t.Fatalf("alarm = %v, want syscall-mismatch", res.Alarm)
	}
}

func TestExitStatusMismatchDetected(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("x", func(ctx *sys.Context) error { return ctx.Exit(0) }),
		prog("x", func(ctx *sys.Context) error { return ctx.Exit(1) }),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil || res.Alarm.Reason != ReasonArgDivergence {
		t.Fatalf("alarm = %v, want arg-divergence", res.Alarm)
	}
}

func TestOutputDivergenceDetected(t *testing.T) {
	// §4's log-message pitfall: if a variant writes its (differing)
	// reexpressed UID into shared output, the monitor flags it.
	w := newWorld(t)
	progs := []sys.Program{
		prog("log", func(ctx *sys.Context) error {
			if err := ctx.WriteString(sys.FDStderr, "uid=0"); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("log", func(ctx *sys.Context) error {
			if err := ctx.WriteString(sys.FDStderr, "uid=2147483647"); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil {
		t.Fatal("divergent output not detected")
	}
	// Differing lengths surface as arg-divergence (length is a plain
	// arg); equal-length differing payloads as data-divergence.
	if res.Alarm.Reason != ReasonArgDivergence && res.Alarm.Reason != ReasonDataDivergence {
		t.Errorf("reason = %v", res.Alarm.Reason)
	}
}

func TestEqualLengthOutputDivergence(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("log", func(ctx *sys.Context) error {
			if err := ctx.WriteString(sys.FDStdout, "AAAA"); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("log", func(ctx *sys.Context) error {
			if err := ctx.WriteString(sys.FDStdout, "BBBB"); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil || res.Alarm.Reason != ReasonDataDivergence {
		t.Fatalf("alarm = %v, want data-divergence", res.Alarm)
	}
}

func TestVariantFaultDetected(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("fault", func(ctx *sys.Context) error {
			// Dereference unmapped memory: simulated segfault.
			_, err := ctx.Mem.LoadByte(0x00700000)
			if err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
		prog("fault", func(ctx *sys.Context) error {
			if _, err := ctx.Getuid(); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res := mustRun(t, w, progs)
	if res.Alarm == nil || res.Alarm.Reason != ReasonVariantFault {
		t.Fatalf("alarm = %v, want variant-fault", res.Alarm)
	}
	if res.Alarm.Variant != 0 {
		t.Errorf("faulting variant = %d, want 0", res.Alarm.Variant)
	}
}

func TestRendezvousTimeout(t *testing.T) {
	w := newWorld(t)
	progs := []sys.Program{
		prog("slow", func(ctx *sys.Context) error {
			time.Sleep(300 * time.Millisecond)
			return ctx.Exit(0)
		}),
		prog("fast", func(ctx *sys.Context) error {
			if _, err := ctx.Getuid(); err != nil {
				return err
			}
			return ctx.Exit(0)
		}),
	}
	res, err := Run(w, simnet.New(0), progs, WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Alarm == nil || res.Alarm.Reason != ReasonTimeout {
		t.Fatalf("alarm = %v, want timeout", res.Alarm)
	}
}

func TestSharedFileReadReplication(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(2, "reader", func(ctx *sys.Context) error {
		fd, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		// Both variants got the same bytes, so this shared write
		// cross-checks cleanly.
		if err := ctx.WriteString(sys.FDStdout, string(data[:20])); err != nil {
			return err
		}
		return ctx.Exit(0)
	}))
	if !res.Clean {
		t.Fatalf("alarm: %v", res.Alarm)
	}
	if !strings.HasPrefix(string(res.Stdout), "root:x:0:0:") {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestUnsharedPasswdPipeline(t *testing.T) {
	// §3.4 end to end: the kernel serves /etc/passwd-0 and
	// /etc/passwd-1; each variant parses its own diversified copy and
	// feeds the (differently represented) wwwrun UID through
	// uid_value and setuid — which must cross-check cleanly because
	// the canonical values agree.
	w := newWorld(t)
	pair := reexpress.UIDVariation().Pair
	if err := SetupUnsharedPasswd(w, pair.Funcs()); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w, same(2, "drop-priv", func(ctx *sys.Context) error {
		fd, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		users, err := vos.ParsePasswd(data)
		if err != nil {
			return err
		}
		u, ok := vos.LookupUser(users, "wwwrun")
		if !ok {
			return vos.ErrNoEnt
		}
		if _, err := ctx.UIDValue(u.UID); err != nil {
			return err
		}
		if err := ctx.Setuid(u.UID); err != nil {
			return err
		}
		// Privileges dropped: the root-only file must now be EACCES.
		if _, err := ctx.Open("/var/www/private/secret.html", vos.ReadOnly, 0); err == nil {
			return ctx.Exit(13)
		}
		return ctx.Exit(0)
	}),
		withUIDFuncs(pair.Funcs()...),
		WithUnsharedFiles("/etc/passwd", "/etc/group"),
	)
	if !res.Clean {
		t.Fatalf("alarm: %v", res.Alarm)
	}
	if res.Status != 0 {
		t.Fatalf("status = %d (13 means the drop did not take effect)", res.Status)
	}
}

func TestUnsharedFileMissing(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(2, "missing", func(ctx *sys.Context) error {
		if _, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0); err == nil {
			return ctx.Exit(1)
		}
		return ctx.Exit(0)
	}), WithUnsharedFiles("/etc/passwd"))
	// passwd-0/-1 were never created: open fails identically for both.
	if !res.Clean || res.Status != 0 {
		t.Fatalf("clean=%v status=%d alarm=%v", res.Clean, res.Status, res.Alarm)
	}
}

func TestCCComparisons(t *testing.T) {
	w := newWorld(t)
	pair := reexpress.UIDVariation().Pair
	apply := func(v int, u vos.UID) vos.UID {
		r, err := pair.Funcs()[v].Apply(u)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		return r
	}
	progs := make([]sys.Program, 2)
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = prog("cc", func(ctx *sys.Context) error {
			a := apply(i, 5)
			b := apply(i, 9)
			checks := []struct {
				got  func() (bool, error)
				want bool
			}{
				{func() (bool, error) { return ctx.CCEq(a, a) }, true},
				{func() (bool, error) { return ctx.CCEq(a, b) }, false},
				{func() (bool, error) { return ctx.CCNeq(a, b) }, true},
				{func() (bool, error) { return ctx.CCLt(a, b) }, true},
				{func() (bool, error) { return ctx.CCLeq(a, a) }, true},
				{func() (bool, error) { return ctx.CCGt(b, a) }, true},
				{func() (bool, error) { return ctx.CCGeq(a, b) }, false},
			}
			for k, c := range checks {
				got, err := c.got()
				if err != nil {
					return err
				}
				if got != c.want {
					return ctx.Exit(word.Word(k + 10))
				}
			}
			return ctx.Exit(0)
		})
	}
	res := mustRun(t, w, progs, withUIDFuncs(pair.Funcs()...))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("cc comparisons: clean=%v status=%d alarm=%v", res.Clean, res.Status, res.Alarm)
	}
}

func TestCCLtSemanticsOnCanonicalValues(t *testing.T) {
	// §3.5 design point (2): because the kernel compares canonical
	// values, the *reexpressed* ordering (which XOR reverses) does not
	// leak into program logic — no operator reversal needed.
	w := newWorld(t)
	pair := reexpress.UIDVariation().Pair
	progs := make([]sys.Program, 2)
	for i := 0; i < 2; i++ {
		i := i
		progs[i] = prog("lt", func(ctx *sys.Context) error {
			f := pair.Funcs()[i]
			a, err := f.Apply(3)
			if err != nil {
				return err
			}
			b, err := f.Apply(1000)
			if err != nil {
				return err
			}
			// In variant 1's representation a > b numerically, but the
			// canonical comparison must still say 3 < 1000.
			lt, err := ctx.CCLt(a, b)
			if err != nil {
				return err
			}
			if !lt {
				return ctx.Exit(1)
			}
			return ctx.Exit(0)
		})
	}
	res := mustRun(t, w, progs, withUIDFuncs(pair.Funcs()...))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("canonical lt: clean=%v status=%d alarm=%v", res.Clean, res.Status, res.Alarm)
	}
}

func TestNetworkEchoUnderMonitor(t *testing.T) {
	w := newWorld(t)
	net := simnet.New(0)
	progs := same(2, "echo", func(ctx *sys.Context) error {
		lfd, err := ctx.Listen(8080)
		if err != nil {
			return err
		}
		cfd, err := ctx.Accept(lfd)
		if err != nil {
			return err
		}
		buf, err := ctx.Mem.Alloc(1024)
		if err != nil {
			return err
		}
		n, err := ctx.RecvMem(cfd, buf, 1024)
		if err != nil {
			return err
		}
		if err := ctx.SendMem(cfd, buf, n); err != nil {
			return err
		}
		if err := ctx.Close(cfd); err != nil {
			return err
		}
		if err := ctx.Close(lfd); err != nil {
			return err
		}
		return ctx.Exit(0)
	})

	type outcome struct {
		res *Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := Run(w, net, progs)
		resCh <- outcome{res, err}
	}()

	// Client side: wait for the listener, then echo.
	var conn *simnet.Conn
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.Dial(8080)
		if err == nil {
			conn = c
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never listened")
		}
		time.Sleep(time.Millisecond)
	}
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ping" {
		t.Errorf("echo = %q", reply)
	}
	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.res.Clean {
		t.Fatalf("alarm: %v", out.res.Alarm)
	}
}

func TestAddressPartitioningVariantsGetDisjointSpaces(t *testing.T) {
	w := newWorld(t)
	// Variants record their buffer addresses in unshared files.
	root := vos.CredFor(vos.Root, 0)
	for i := 0; i < 2; i++ {
		if err := w.FS.WriteFile(UnsharedPath("/tmp/addr", i), nil, 0644, root); err != nil {
			t.Fatal(err)
		}
	}
	res := mustRun(t, w, same(2, "alloc", func(ctx *sys.Context) error {
		addr, err := ctx.Mem.Alloc(64)
		if err != nil {
			return err
		}
		fd, err := ctx.Open("/tmp/addr", vos.WriteOnly, 0)
		if err != nil {
			return err
		}
		if err := ctx.WriteString(fd, addr.String()); err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		return ctx.Exit(0)
	}),
		WithAddressPartition(),
		WithUnsharedFiles("/tmp/addr"),
	)
	if !res.Clean {
		t.Fatalf("alarm: %v", res.Alarm)
	}
	a0, _ := w.FS.ReadFile("/tmp/addr-0", root)
	a1, _ := w.FS.ReadFile("/tmp/addr-1", root)
	if !strings.HasPrefix(string(a0), "0x0") {
		t.Errorf("variant 0 address %s not in low partition", a0)
	}
	if !strings.HasPrefix(string(a1), "0x8") {
		t.Errorf("variant 1 address %s not in high partition", a1)
	}
}

func TestAbsoluteAddressInjectionDetected(t *testing.T) {
	// Figure 1: the attacker learns a concrete address valid in
	// variant 0 and injects it; when both variants dereference the
	// same absolute address, variant 1 segfaults and the monitor
	// raises an alarm.
	w := newWorld(t)
	injected := word.Word(0x00001000) // low-partition address
	res := mustRun(t, w, same(2, "deref", func(ctx *sys.Context) error {
		if _, err := ctx.Mem.Alloc(64); err != nil { // maps 0x...1000
			return err
		}
		if _, err := ctx.Mem.LoadByte(injected); err != nil {
			return err // variant 1 faults here
		}
		if _, err := ctx.Getuid(); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), WithAddressPartition())
	if res.Alarm == nil || res.Alarm.Reason != ReasonVariantFault {
		t.Fatalf("alarm = %v, want variant-fault", res.Alarm)
	}
	if res.Alarm.Variant != 1 {
		t.Errorf("faulting variant = %d, want 1", res.Alarm.Variant)
	}
}

func TestSlotReuseAfterClose(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(2, "slots", func(ctx *sys.Context) error {
		fd1, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd1); err != nil {
			return err
		}
		fd2, err := ctx.Open("/etc/group", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		if fd1 != fd2 {
			return ctx.Exit(1)
		}
		if err := ctx.Close(fd2); err != nil {
			return err
		}
		return ctx.Exit(0)
	}))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("slot reuse: status=%d alarm=%v", res.Status, res.Alarm)
	}
}

func TestBadFDErrno(t *testing.T) {
	w := newWorld(t)
	res := mustRun(t, w, same(2, "badfd", func(ctx *sys.Context) error {
		if err := ctx.Close(99); err == nil {
			return ctx.Exit(1)
		}
		buf, err := ctx.Mem.Alloc(16)
		if err != nil {
			return err
		}
		if _, err := ctx.ReadMem(42, buf, 16); err == nil {
			return ctx.Exit(2)
		}
		return ctx.Exit(0)
	}))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("bad fd handling: status=%d alarm=%v", res.Status, res.Alarm)
	}
}

func TestTimeReplication(t *testing.T) {
	// Virtual time is an input: all variants observe the same value,
	// so using it in shared output does not diverge.
	w := newWorld(t)
	res := mustRun(t, w, same(2, "time", func(ctx *sys.Context) error {
		t1, err := vtime(ctx)
		if err != nil {
			return err
		}
		t2, err := vtime(ctx)
		if err != nil {
			return err
		}
		if t2 <= t1 {
			return ctx.Exit(1)
		}
		if err := ctx.WriteString(sys.FDStdout, t1.String()+t2.String()); err != nil {
			return err
		}
		return ctx.Exit(0)
	}))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("time: status=%d alarm=%v", res.Status, res.Alarm)
	}
}

func TestSetuidPermissionErrno(t *testing.T) {
	// EPERM surfaces identically in all variants — an errno, not an
	// alarm.
	w := newWorld(t)
	res := mustRun(t, w, same(2, "eperm", func(ctx *sys.Context) error {
		if err := ctx.Setuid(0); err == nil {
			return ctx.Exit(1)
		}
		return ctx.Exit(0)
	}), func(c *Config) { c.Cred = vos.CredFor(1000, 100) })
	if !res.Clean || res.Status != 0 {
		t.Fatalf("eperm: status=%d alarm=%v", res.Status, res.Alarm)
	}
}

func TestThreeVariants(t *testing.T) {
	// The framework generalizes beyond N=2: three variants with three
	// disjoint XOR masks.
	w := newWorld(t)
	funcs := []reexpress.Func{
		reexpress.Identity{},
		reexpress.XORMask{Mask: 0x7FFFFFFF},
		reexpress.XORMask{Mask: 0x55555555},
	}
	res := mustRun(t, w, same(3, "trio", func(ctx *sys.Context) error {
		uid, err := ctx.Getuid()
		if err != nil {
			return err
		}
		if _, err := ctx.UIDValue(uid); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), withUIDFuncs(funcs...))
	if !res.Clean {
		t.Fatalf("3-variant run alarmed: %v", res.Alarm)
	}
}

func TestRunValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := Run(w, simnet.New(0), nil); err == nil {
		t.Error("Run with no variants succeeded")
	}
	if _, err := Run(w, simnet.New(0), same(2, "x", func(ctx *sys.Context) error { return ctx.Exit(0) }),
		withUIDFuncs(reexpress.Identity{})); err == nil {
		t.Error("Run with mismatched UID funcs succeeded")
	}
	// Barrier arrivals are a uint64 mask, unanimous groups included.
	if _, err := Run(w, simnet.New(0), same(65, "x", func(ctx *sys.Context) error { return ctx.Exit(0) })); err == nil {
		t.Error("Run with 65 variants succeeded")
	}
}

func TestAlarmErrorString(t *testing.T) {
	a := &Alarm{Reason: ReasonUIDDivergence, Syscall: "setuid", Seq: 7, Variant: 1, Detail: "boom"}
	msg := a.Error()
	for _, want := range []string{"uid-divergence", "setuid", "seq 7", "variant 1", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("alarm message %q missing %q", msg, want)
		}
	}
}

func TestReasonStrings(t *testing.T) {
	reasons := map[Reason]string{
		ReasonSyscallMismatch: "syscall-mismatch",
		ReasonArgDivergence:   "arg-divergence",
		ReasonUIDDivergence:   "uid-divergence",
		ReasonCondDivergence:  "cond-divergence",
		ReasonDataDivergence:  "data-divergence",
		ReasonVariantFault:    "variant-fault",
		ReasonExitMismatch:    "exit-mismatch",
		ReasonTimeout:         "timeout",
		Reason(99):            "unknown",
	}
	for r, want := range reasons {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d) = %q, want %q", r, got, want)
		}
	}
}

func TestSetupUnsharedPasswdContents(t *testing.T) {
	w := newWorld(t)
	pair := reexpress.UIDVariation().Pair
	if err := SetupUnsharedPasswd(w, pair.Funcs()); err != nil {
		t.Fatal(err)
	}
	root := vos.CredFor(vos.Root, 0)
	p1, err := w.FS.ReadFile("/etc/passwd-1", root)
	if err != nil {
		t.Fatal(err)
	}
	users, err := vos.ParsePasswd(p1)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := vos.LookupUser(users, "root")
	if !ok {
		t.Fatal("no root in variant 1 passwd")
	}
	if u.UID != 0x7FFFFFFF {
		t.Errorf("variant 1 root uid = %s, want 0x7FFFFFFF", word.Word(u.UID))
	}
	// Variant 0 is the identity.
	p0, err := w.FS.ReadFile("/etc/passwd-0", root)
	if err != nil {
		t.Fatal(err)
	}
	users0, err := vos.ParsePasswd(p0)
	if err != nil {
		t.Fatal(err)
	}
	u0, _ := vos.LookupUser(users0, "root")
	if u0.UID != 0 {
		t.Errorf("variant 0 root uid = %s, want 0", word.Word(u0.UID))
	}
}

func TestUnsharedWriteDifferentLengths(t *testing.T) {
	// §3.4 regression: writes to unshared files are per-variant, so
	// payloads of DIFFERENT lengths must not alarm (diversified UIDs
	// have different digit counts).
	w := newWorld(t)
	res := mustRun(t, w, same(2, "difflen", func(ctx *sys.Context) error {
		fd, err := ctx.Open("/tmp/own", vos.WriteOnly|vos.Create, 0644)
		if err != nil {
			return err
		}
		payload := "short"
		if ctx.Variant == 1 {
			payload = "a much longer line for variant one"
		}
		if err := ctx.WriteString(fd, payload); err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), WithUnsharedFiles("/tmp/own"))
	if !res.Clean {
		t.Fatalf("alarm on unshared divergent write: %v", res.Alarm)
	}
	root := vos.CredFor(vos.Root, 0)
	v0, err := w.FS.ReadFile("/tmp/own-0", root)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := w.FS.ReadFile("/tmp/own-1", root)
	if err != nil {
		t.Fatal(err)
	}
	if string(v0) != "short" || string(v1) != "a much longer line for variant one" {
		t.Errorf("contents = %q / %q", v0, v1)
	}
}

func TestUnsharedReadDifferentLengths(t *testing.T) {
	// Reads from unshared files deliver each variant its own content
	// and its own count.
	w := newWorld(t)
	root := vos.CredFor(vos.Root, 0)
	if err := w.FS.WriteFile("/tmp/in-0", []byte("aa"), 0644, root); err != nil {
		t.Fatal(err)
	}
	if err := w.FS.WriteFile("/tmp/in-1", []byte("bbbbbb"), 0644, root); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w, same(2, "diffread", func(ctx *sys.Context) error {
		fd, err := ctx.Open("/tmp/in", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		want := 2
		if ctx.Variant == 1 {
			want = 6
		}
		if len(data) != want {
			return ctx.Exit(word.Word(10 + ctx.Variant))
		}
		return ctx.Exit(0)
	}), WithUnsharedFiles("/tmp/in"))
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status=%d alarm=%v", res.Status, res.Alarm)
	}
}

// --- DiversitySpec: N-wide groups through WithSpec --------------------

// specN builds a validated N-variant spec with a generated UID layer
// and N-way address partitioning.
func specN(t *testing.T, n int) *reexpress.Spec {
	t.Helper()
	return reexpress.Generate(int64(1000+n), n, reexpress.LayerUID, reexpress.LayerAddressPartition)
}

func TestSpecNormalEquivalenceAtEveryN(t *testing.T) {
	// N identical variants under a generated spec must run clean on
	// benign input: getuid/setuid round-trips canonicalize per variant.
	for n := 2; n <= 5; n++ {
		w := newWorld(t)
		res := mustRun(t, w, same(n, "equiv", func(ctx *sys.Context) error {
			uid, err := ctx.Getuid()
			if err != nil {
				return err
			}
			if err := ctx.Setuid(uid); err != nil {
				return err
			}
			if _, err := ctx.Mem.Alloc(4096); err != nil {
				return err
			}
			return ctx.Exit(0)
		}), WithSpec(specN(t, n)))
		if !res.Clean {
			t.Fatalf("n=%d: benign run alarmed: %v", n, res.Alarm)
		}
	}
}

func TestSpecInjectedUIDDetectedAtEveryN(t *testing.T) {
	// The detection property N-wide: an identical injected concrete
	// UID cannot decode consistently in any two variants.
	for n := 2; n <= 5; n++ {
		w := newWorld(t)
		res := mustRun(t, w, same(n, "injected", func(ctx *sys.Context) error {
			if _, err := ctx.UIDValue(0); err != nil {
				return err
			}
			return ctx.Exit(0)
		}), WithSpec(specN(t, n)))
		if res.Alarm == nil || res.Alarm.Reason != ReasonUIDDivergence {
			t.Fatalf("n=%d: alarm = %v, want uid-divergence", n, res.Alarm)
		}
	}
}

func TestSpecAddressInjectionDetectedBeyondTwo(t *testing.T) {
	// An injected absolute address is valid in at most one variant's
	// slot; dereferencing it in the others segfaults (Figure 1,
	// generalized to a 4-way split).
	n := 3
	injected := word.Word(0x00002000)
	w := newWorld(t)
	res := mustRun(t, w, same(n, "deref", func(ctx *sys.Context) error {
		if _, err := ctx.Mem.Alloc(8192); err != nil {
			return err
		}
		if _, err := ctx.Mem.LoadByte(injected); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), WithSpec(specN(t, n)))
	if res.Alarm == nil {
		t.Fatal("n=3: injected address not detected")
	}
}

func TestWithSpecComposesWithOptions(t *testing.T) {
	// A UID-only spec must not clobber separately-set options.
	cfg := defaultConfig(2)
	WithUnsharedFiles("/etc/passwd")(&cfg)
	WithSpec(reexpress.UncheckedSpec(2, reexpress.UIDLayer(reexpress.UIDVariation().Pair.Funcs()...)))(&cfg)
	if !cfg.Unshared["/etc/passwd"] {
		t.Error("spec clobbered the unshared-file set")
	}
	if cfg.AddressPartition {
		t.Error("UID-only spec enabled address partitioning")
	}
	if len(cfg.UIDFuncs) != 2 || cfg.UIDFuncs[1].Name() != reexpress.UIDVariation().Pair.R1.Name() {
		t.Errorf("UID funcs not installed: %v", cfg.UIDFuncs)
	}
	if cfg.Spec == nil {
		t.Error("spec not recorded in the config")
	}
}

func TestRunRefusesSpecWidthMismatch(t *testing.T) {
	// A spec validated for 3 variants must not deploy over 2 programs:
	// the partition layout and the recorded configuration would both
	// be wrong.
	spec := reexpress.UncheckedSpec(3, reexpress.AddressPartitionLayer(3))
	w := newWorld(t)
	_, err := Run(w, simnet.New(0), same(2, "noop", func(ctx *sys.Context) error {
		return ctx.Exit(0)
	}), WithSpec(spec))
	if err == nil {
		t.Fatal("3-variant spec accepted over 2 programs")
	}
}
