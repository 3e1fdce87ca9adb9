package minic

import (
	"strings"
	"testing"

	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// runPlain executes src as a single process on a fresh world.
func runPlain(t *testing.T, src string, opts InterpOptions) *nvkernel.Result {
	t.Helper()
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile("test", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvkernel.Run(world, simnet.New(0), []sys.Program{prog})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInterpArithmeticAndControl(t *testing.T) {
	src := `int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int acc = 0;
    int i = 0;
    while (i < 10) {
        acc = acc + i;
        i = i + 1;
    }
    if (acc != 45) { return 1; }
    if (fib(10) != 55) { return 2; }
    if (7 % 3 != 1) { return 3; }
    if (7 / 2 != 3) { return 4; }
    if (-3 + 5 != 2) { return 5; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestInterpStringsAndLogic(t *testing.T) {
	src := `int main() {
    string a = "foo";
    string b = "bar";
    if (a + b != "foobar") { return 1; }
    if (a == b) { return 2; }
    bool t = true;
    bool f = false;
    if (t && f) { return 3; }
    if (!(t || f)) { return 4; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestInterpShortCircuit(t *testing.T) {
	// Division by zero on the right of && must not evaluate when the
	// left is false.
	src := `int main() {
    int zero = 0;
    bool ok = false;
    if (ok && (1 / zero == 1)) { return 1; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v (short-circuit broken)", res.Status, res.Alarm)
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	cases := []string{
		`int main() { int z = 0; return 1 / z; }`,
		`int main() { int z = 0; return 1 % z; }`,
	}
	for _, src := range cases {
		res := runPlain(t, src, InterpOptions{})
		if res.Alarm == nil {
			t.Errorf("runtime error in %q not surfaced as variant fault", src)
		}
	}
}

func TestInterpStepBudget(t *testing.T) {
	src := `int main() { while (true) { } return 0; }`
	res := runPlain(t, src, InterpOptions{maxSteps: 1000})
	if res.Alarm == nil || res.Alarm.Reason != nvkernel.ReasonVariantFault {
		t.Fatalf("infinite loop alarm = %v, want variant-fault", res.Alarm)
	}
}

func TestInterpSyscallsPlain(t *testing.T) {
	// The full unixd flow on a plain kernel: lookups, privilege drop,
	// logging.
	src := `int main() {
    bool found;
    uid_t u;
    found = getpwnam("wwwrun");
    if (!found) { return 1; }
    u = pw_uid();
    if (u != 30) { return 2; }
    if (seteuid(u) != 0) { return 3; }
    if (geteuid() != u) { return 4; }
    if (seteuid(0) != 0) { return 5; }
    found = getgrnam("www");
    if (!found) { return 6; }
    if (gr_gid() != 8) { return 7; }
    if (!getpwuid_has(u)) { return 8; }
    if (getpwuid_has(4242)) { return 9; }
    log("done");
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
	if !strings.Contains(string(res.Stderr), "done") {
		t.Errorf("stderr = %q", res.Stderr)
	}
}

func TestInterpGetpwnamMissingUser(t *testing.T) {
	src := `int main() {
    bool found;
    found = getpwnam("mallory");
    if (found) { return 1; }
    if (pw_uid() != 0) { return 2; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestInterpExitBuiltin(t *testing.T) {
	src := `int main() { exit(7); return 0; }`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 7 {
		t.Fatalf("status = %d, want 7", res.Status)
	}
}

func TestInterpLogUID(t *testing.T) {
	src := `int main() {
    uid_t u;
    u = getuid();
    log_uid("current", u);
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean {
		t.Fatalf("alarm: %v", res.Alarm)
	}
	if !strings.Contains(string(res.Stderr), "current uid=0") {
		t.Errorf("stderr = %q", res.Stderr)
	}
}

func TestInterpCorruption(t *testing.T) {
	// The attacker's corruption primitive: after assignment, worker's
	// raw bits become 0 — and the unprotected program escalates.
	src := `int main() {
    uid_t worker;
    worker = pw_lookup();
    if (seteuid(worker) != 0) { return 1; }
    if (geteuid() == 0) { return 42; }
    return 0;
}
uid_t pw_lookup() {
    bool found;
    found = getpwnam("wwwrun");
    if (!found) { exit(9); }
    return pw_uid();
}
`
	res := runPlain(t, src, InterpOptions{
		CorruptOnAssign: map[string]word.Word{"worker": 0},
	})
	if !res.Clean || res.Status != 42 {
		t.Fatalf("status = %d, alarm = %v; corruption should escalate on plain kernel", res.Status, res.Alarm)
	}
}

func TestInterpDetectionBuiltins(t *testing.T) {
	src := `int main() {
    uid_t u;
    u = getuid();
    u = uid_value(u);
    if (!cond_chk(true)) { return 1; }
    if (!cc_eq(u, u)) { return 2; }
    if (cc_neq(u, u)) { return 3; }
    if (cc_lt(u, u)) { return 4; }
    if (!cc_leq(u, u)) { return 5; }
    if (cc_gt(u, u)) { return 6; }
    if (!cc_geq(u, u)) { return 7; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestInterpUIDComparisonLocal(t *testing.T) {
	src := `int main() {
    uid_t small;
    uid_t big;
    small = 3;
    big = 1000;
    if (small >= big) { return 1; }
    if (!(small < big)) { return 2; }
    return 0;
}
`
	res := runPlain(t, src, InterpOptions{})
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Type: TypeInt, I: 5}, "5"},
		{Value{Type: TypeBool, B: true}, "true"},
		{Value{Type: TypeString, S: "x"}, `"x"`},
		{Value{Type: TypeUID, W: 0x1E}, "0x0000001E"},
		{Value{Type: TypeVoid}, "void"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestTwoIdenticalMinicVariants(t *testing.T) {
	// Normal equivalence for the interpreter itself: two identical
	// minic variants under the monitor, no diversity.
	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	src := `int main() {
    bool found;
    found = getpwnam("alice");
    if (!found) { return 1; }
    log("hello from minic");
    return 0;
}
`
	p1, err := compile("v0", src, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := compile("v1", src, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nvkernel.Run(world, simnet.New(0), []sys.Program{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Status != 0 {
		t.Fatalf("status = %d, alarm = %v", res.Status, res.Alarm)
	}
}
