package minic

import (
	"errors"
	"strings"
	"testing"

	"nvariant/internal/sys"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int x = 42; // comment
uid_t u = 0x7FFF; /* block
comment */ string s = "a\nb";`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"int", "x", "=", "42", ";", "uid_t", "u", "=", "0x7FFF", ";", "string", "s", "=", "a\nb", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokInt || kinds[13] != TokString {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []string{
		"\"unterminated",
		"\"bad\\qescape\"",
		"@",
		"/* unterminated",
		"\"new\nline\"",
	}
	for _, src := range cases {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("int a;\nint b;\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[3].Line != 2 {
		t.Errorf("second decl line = %d, want 2", toks[3].Line)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `uid_t worker = 30;

int helper(uid_t u, int n) {
    if (u == 0) {
        return n + 1;
    }
    while (n < 10) {
        n = n * 2;
    }
    return n;
}

int main() {
    int x;
    x = helper(worker, 3);
    if (x > 5 && true) {
        log("big");
    } else {
        log("small");
    }
    return 0;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 1 || len(prog.Funcs) != 2 {
		t.Fatalf("globals=%d funcs=%d", len(prog.Globals), len(prog.Funcs))
	}
	// The emitted source must reparse to the same structure.
	emitted := prog.Emit()
	prog2, err := Parse(emitted)
	if err != nil {
		t.Fatalf("reparse emitted source: %v\n%s", err, emitted)
	}
	if prog2.Emit() != emitted {
		t.Error("emit is not a fixed point")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int;",
		"int main( {",
		"int main() { return 0 }",
		"int main() { if true {} }",
		"int main() { x = ; }",
		"bogus main() {}",
		"int main() { 4294967296; }",
		"int main() { 0xZZ; }",
		"int main() { f(1,; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `int main() {
    int x = 1;
    if (x == 1) { return 1; }
    else if (x == 2) { return 2; }
    else { return 3; }
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestPrecedence(t *testing.T) {
	prog, err := Parse("int main() { return 1 + 2 * 3; }")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	prog.Funcs[0].Body.Stmts[0].Emit(&b, 0)
	if !strings.Contains(b.String(), "(1 + (2 * 3))") {
		t.Errorf("precedence wrong: %s", b.String())
	}
}

func mustCheck(t *testing.T, src string) *CheckResult {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckRejectsUIDArithmetic(t *testing.T) {
	// THE §3.3 rule: only assignment and comparison on UID values.
	src := `int main() { uid_t u; u = getuid(); int x; x = u + 1; return 0; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err == nil {
		t.Fatal("arithmetic on uid_t accepted; §3.3 rule not enforced")
	}
}

func TestCheckRejectsBadPrograms(t *testing.T) {
	cases := []string{
		`int main() { y = 1; return 0; }`,                 // undeclared
		`int main() { int x; bool x; return 0; }`,         // redeclare
		`int f() { return 0; }`,                           // no main
		`int main() { return "s"; }`,                      // return type
		`int main() { log(3); return 0; }`,                // arg type
		`int main() { log("a", "b"); return 0; }`,         // arity
		`int main() { nosuch(); return 0; }`,              // undefined fn
		`int main() { if ("s") {} return 0; }`,            // cond type
		`int main() { bool b; b = 1 && true; return 0; }`, // && types
		`int main() { uid_t u; string s; u = s; return 0; }`,
		`int uid_value() { return 0; } int main() { return 0; }`, // builtin collision
		`int main() { string s; s = "a" < "b"; return 0; }`,      // ordered strings
	}
	for _, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Check(prog); err == nil {
			t.Errorf("Check(%q) succeeded, want error", src)
		}
	}
}

func TestCheckMarksUIDConstants(t *testing.T) {
	src := `uid_t root_uid = 0;
int main() {
    uid_t u;
    u = getuid();
    if (u == 42) { return 1; }
    seteuid(99);
    return 0;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	marked := 0
	countLits(t, prog, &marked)
	if marked != 3 {
		t.Errorf("marked UID literals = %d, want 3 (global init, comparison, seteuid arg)", marked)
	}
}

func countLits(t *testing.T, prog *Program, marked *int) {
	t.Helper()
	var visitExpr func(e Expr)
	visitExpr = func(e Expr) {
		switch x := e.(type) {
		case *IntLit:
			if x.InferredType.IsUIDLike() {
				*marked++
			}
		case *UnaryExpr:
			visitExpr(x.X)
		case *BinaryExpr:
			visitExpr(x.X)
			visitExpr(x.Y)
		case *CallExpr:
			for _, a := range x.Args {
				visitExpr(a)
			}
		}
	}
	var visitStmt func(s Stmt)
	visitStmt = func(s Stmt) {
		switch st := s.(type) {
		case *VarDecl:
			if st.Init != nil {
				visitExpr(st.Init)
			}
		case *AssignStmt:
			visitExpr(st.X)
		case *ExprStmt:
			visitExpr(st.X)
		case *IfStmt:
			visitExpr(st.Cond)
			visitStmt(st.Then)
			if st.Else != nil {
				visitStmt(st.Else)
			}
		case *WhileStmt:
			visitExpr(st.Cond)
			visitStmt(st.Body)
		case *ReturnStmt:
			if st.X != nil {
				visitExpr(st.X)
			}
		case *BlockStmt:
			for _, inner := range st.Stmts {
				visitStmt(inner)
			}
		}
	}
	for _, g := range prog.Globals {
		if g.Init != nil {
			visitExpr(g.Init)
		}
	}
	for _, f := range prog.Funcs {
		visitStmt(f.Body)
	}
}

func TestSplintStyleInference(t *testing.T) {
	// An int variable that stores a UID must be promoted (§4: "if the
	// programmer did not use uid_t ... inferred using dataflow
	// analysis").
	src := `int main() {
    int sloppy;
    sloppy = getuid();
    seteuid(sloppy);
    return 0;
}
`
	res := mustCheck(t, src)
	if res.VarTypes["main.sloppy"] != TypeUID {
		t.Errorf("sloppy type = %v, want uid_t", res.VarTypes["main.sloppy"])
	}
	if len(res.InferredUIDVars) != 1 || res.InferredUIDVars[0] != "main.sloppy" {
		t.Errorf("inferred = %v", res.InferredUIDVars)
	}
}

func TestInferenceViaComparison(t *testing.T) {
	src := `int main() {
    int v = 5;
    uid_t u;
    u = getuid();
    if (v == u) { return 1; }
    return 0;
}
`
	res := mustCheck(t, src)
	if res.VarTypes["main.v"] != TypeUID {
		t.Errorf("v type = %v, want uid_t (compared with uid)", res.VarTypes["main.v"])
	}
}

func TestTaintTracking(t *testing.T) {
	src := `int check(uid_t u) {
    if (u == 0) { return 1; }
    return 0;
}
int main() {
    bool found;
    int rc;
    found = getpwnam("wwwrun");
    rc = check(getuid());
    if (rc != 0) { return 1; }
    return 0;
}
`
	res := mustCheck(t, src)
	if !res.TaintedVars["main.found"] {
		t.Error("found not tainted (getpwnam is UID-derived)")
	}
	if !res.TaintedVars["main.rc"] {
		t.Error("rc not tainted (check takes UID data)")
	}
	if !res.TaintedFuncs["check"] {
		t.Error("check not marked as returning UID-derived data")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := compile("x", "not a program", InterpOptions{}); err == nil {
		t.Error("bad source compiled")
	}
	var syn *SyntaxError
	_, err := compile("x", "int main() { return }", InterpOptions{})
	if !errors.As(err, &syn) {
		t.Errorf("error = %v, want SyntaxError", err)
	}
	var te *TypeError
	_, err = compile("x", "int main() { uid_t u; u = u * u; return 0; }", InterpOptions{})
	if !errors.As(err, &te) {
		t.Errorf("error = %v, want TypeError", err)
	}
}

func TestTypeStrings(t *testing.T) {
	types := map[Type]string{
		TypeVoid: "void", TypeInt: "int", TypeBool: "bool",
		TypeString: "string", TypeUID: "uid_t", TypeGID: "gid_t", Type(99): "?",
	}
	for ty, want := range types {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d) = %q, want %q", ty, got, want)
		}
	}
}

// compile parses, checks and wraps source as a runnable program.
func compile(name, src string, opts InterpOptions) (sys.Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(name, prog, opts)
}
