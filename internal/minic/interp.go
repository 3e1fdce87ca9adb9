package minic

import (
	"errors"
	"fmt"

	"nvariant/internal/libc"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Value is a runtime value.
type Value struct {
	// Type tags the value.
	Type Type
	// I holds int values.
	I int64
	// W holds uid_t/gid_t raw bits (the variant's representation).
	W word.Word
	// B holds bool values.
	B bool
	// S holds string values.
	S string
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Type {
	case TypeInt:
		return fmt.Sprintf("%d", v.I)
	case TypeBool:
		return fmt.Sprintf("%v", v.B)
	case TypeString:
		return fmt.Sprintf("%q", v.S)
	case TypeUID, TypeGID:
		return v.W.String()
	default:
		return "void"
	}
}

// InterpOptions configures program execution.
type InterpOptions struct {
	// CorruptOnAssign models a memory-corruption attacker: after every
	// assignment to a named variable, its raw bits are overwritten
	// with the given concrete word — the same word in every variant,
	// bypassing reexpression exactly as an overflow would (§3).
	CorruptOnAssign map[string]word.Word
	// maxSteps bounds execution (tests lower it to stop runaway
	// loops quickly); 0 means the default of one million.
	maxSteps int
}

// CompileAST checks and wraps an AST (e.g. a transformed variant) as a
// runnable program.
func CompileAST(name string, prog *Program, opts InterpOptions) (sys.Program, error) {
	if _, err := Check(prog); err != nil {
		return nil, err
	}
	return &interpProgram{name: name, prog: prog, opts: opts}, nil
}

type interpProgram struct {
	name string
	prog *Program
	opts InterpOptions
}

var _ sys.Program = (*interpProgram)(nil)

// Name implements sys.Program.
func (p *interpProgram) Name() string { return p.name }

// Run implements sys.Program.
func (p *interpProgram) Run(ctx *sys.Context) error {
	in := &interp{
		prog:     p.prog,
		ctx:      ctx,
		builtins: Builtins(),
		globals:  make(map[string]*Value),
		opts:     p.opts,
		maxSteps: p.opts.maxSteps,
	}
	if in.maxSteps == 0 {
		in.maxSteps = 1_000_000
	}
	return in.runMain()
}

// errExited unwinds the interpreter after the program calls exit().
var errExited = errors.New("minic: exited")

type interp struct {
	prog     *Program
	ctx      *sys.Context
	builtins map[string]Builtin
	globals  map[string]*Value
	opts     InterpOptions
	maxSteps int
	steps    int

	lastPW   vos.User
	lastPWOK bool
	lastGR   vos.Group
	lastGROK bool
}

// frame is one function activation.
type frame struct {
	fn     *FuncDecl
	locals map[string]*Value
}

func zeroValue(t Type) Value { return Value{Type: t} }

func (in *interp) runMain() error {
	for _, g := range in.prog.Globals {
		v := zeroValue(g.Type)
		if g.Init != nil {
			init, err := in.eval(nil, g.Init)
			if err != nil {
				return in.mapExit(err)
			}
			v = coerce(init, g.Type)
		}
		in.globals[g.Name] = &v
		in.corrupt(g.Name, in.globals[g.Name])
	}
	mainFn, ok := in.prog.Func("main")
	if !ok {
		return errors.New("minic: no main")
	}
	ret, err := in.call(mainFn, nil)
	if err != nil {
		return in.mapExit(err)
	}
	status := word.Word(0)
	if ret.Type == TypeInt {
		status = word.Word(uint32(ret.I))
	}
	return in.ctx.Exit(status)
}

// mapExit converts the exit sentinel into a clean return.
func (in *interp) mapExit(err error) error {
	if errors.Is(err, errExited) {
		return nil
	}
	return err
}

// corrupt applies the attacker's overwrite to a variable, if targeted.
func (in *interp) corrupt(name string, v *Value) {
	raw, ok := in.opts.CorruptOnAssign[name]
	if !ok {
		return
	}
	switch v.Type {
	case TypeUID, TypeGID:
		v.W = raw
	case TypeInt:
		v.I = int64(int32(raw))
	case TypeBool:
		v.B = raw != 0
	}
}

// coerce adapts int literals flowing into UID slots.
func coerce(v Value, target Type) Value {
	if target.IsUIDLike() && v.Type == TypeInt {
		return Value{Type: target, W: word.Word(uint32(v.I))}
	}
	if target.IsUIDLike() && v.Type.IsUIDLike() && v.Type != target {
		return Value{Type: target, W: v.W}
	}
	v.Type = target
	return v
}

func (in *interp) step(line int) error {
	in.steps++
	if in.steps > in.maxSteps {
		return fmt.Errorf("minic:%d: step budget exhausted (infinite loop?)", line)
	}
	return nil
}

// call invokes a user-defined function.
func (in *interp) call(fn *FuncDecl, args []Value) (Value, error) {
	fr := &frame{fn: fn, locals: make(map[string]*Value, len(fn.Params)+4)}
	for i, p := range fn.Params {
		v := coerce(args[i], p.Type)
		fr.locals[p.Name] = &v
	}
	ret, returned, err := in.execBlock(fr, fn.Body)
	if err != nil {
		return Value{}, err
	}
	if !returned {
		return zeroValue(fn.Ret), nil
	}
	return coerce(ret, fn.Ret), nil
}

// lookup resolves a variable reference.
func (in *interp) lookup(fr *frame, name string, line int) (*Value, error) {
	if fr != nil {
		if v, ok := fr.locals[name]; ok {
			return v, nil
		}
	}
	if v, ok := in.globals[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("minic:%d: undefined variable %q", line, name)
}

// execBlock executes statements; returned reports an executed return.
func (in *interp) execBlock(fr *frame, b *BlockStmt) (Value, bool, error) {
	for _, st := range b.Stmts {
		ret, returned, err := in.execStmt(fr, st)
		if err != nil || returned {
			return ret, returned, err
		}
	}
	return Value{}, false, nil
}

func (in *interp) execStmt(fr *frame, s Stmt) (Value, bool, error) {
	switch st := s.(type) {
	case *VarDecl:
		if err := in.step(st.Line); err != nil {
			return Value{}, false, err
		}
		v := zeroValue(st.Type)
		if st.Init != nil {
			init, err := in.eval(fr, st.Init)
			if err != nil {
				return Value{}, false, err
			}
			v = coerce(init, st.Type)
		}
		fr.locals[st.Name] = &v
		in.corrupt(st.Name, fr.locals[st.Name])
		return Value{}, false, nil

	case *AssignStmt:
		if err := in.step(st.Line); err != nil {
			return Value{}, false, err
		}
		slot, err := in.lookup(fr, st.Name, st.Line)
		if err != nil {
			return Value{}, false, err
		}
		v, err := in.eval(fr, st.X)
		if err != nil {
			return Value{}, false, err
		}
		*slot = coerce(v, slot.Type)
		in.corrupt(st.Name, slot)
		return Value{}, false, nil

	case *ExprStmt:
		if err := in.step(st.Line); err != nil {
			return Value{}, false, err
		}
		_, err := in.eval(fr, st.X)
		return Value{}, false, err

	case *IfStmt:
		if err := in.step(st.Line); err != nil {
			return Value{}, false, err
		}
		cond, err := in.evalCond(fr, st.Cond)
		if err != nil {
			return Value{}, false, err
		}
		if cond {
			return in.execBlock(fr, st.Then)
		}
		if st.Else != nil {
			return in.execBlock(fr, st.Else)
		}
		return Value{}, false, nil

	case *WhileStmt:
		for {
			if err := in.step(st.Line); err != nil {
				return Value{}, false, err
			}
			cond, err := in.evalCond(fr, st.Cond)
			if err != nil {
				return Value{}, false, err
			}
			if !cond {
				return Value{}, false, nil
			}
			ret, returned, err := in.execBlock(fr, st.Body)
			if err != nil || returned {
				return ret, returned, err
			}
		}

	case *ReturnStmt:
		if err := in.step(st.Line); err != nil {
			return Value{}, false, err
		}
		if st.X == nil {
			return Value{}, true, nil
		}
		v, err := in.eval(fr, st.X)
		if err != nil {
			return Value{}, false, err
		}
		return v, true, nil

	case *BlockStmt:
		return in.execBlock(fr, st)

	default:
		return Value{}, false, fmt.Errorf("minic: unknown statement %T", s)
	}
}

// evalCond evaluates a condition with C truthiness.
func (in *interp) evalCond(fr *frame, e Expr) (bool, error) {
	v, err := in.eval(fr, e)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func truthy(v Value) bool {
	switch v.Type {
	case TypeBool:
		return v.B
	case TypeInt:
		return v.I != 0
	case TypeUID, TypeGID:
		return v.W != 0
	case TypeString:
		return v.S != ""
	default:
		return false
	}
}

func (in *interp) eval(fr *frame, e Expr) (Value, error) {
	switch x := e.(type) {
	case *IntLit:
		if x.InferredType.IsUIDLike() {
			return Value{Type: x.InferredType, W: word.Word(x.Value)}, nil
		}
		return Value{Type: TypeInt, I: int64(int32(x.Value))}, nil
	case *BoolLit:
		return Value{Type: TypeBool, B: x.Value}, nil
	case *StrLit:
		return Value{Type: TypeString, S: x.Value}, nil
	case *VarRef:
		v, err := in.lookup(fr, x.Name, x.Line)
		if err != nil {
			return Value{}, err
		}
		return *v, nil
	case *UnaryExpr:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "!" {
			return Value{Type: TypeBool, B: !truthy(v)}, nil
		}
		return Value{Type: TypeInt, I: -v.I}, nil
	case *BinaryExpr:
		return in.evalBinary(fr, x)
	case *CallExpr:
		return in.evalCall(fr, x)
	default:
		return Value{}, fmt.Errorf("minic: unknown expression %T", e)
	}
}

func (in *interp) evalBinary(fr *frame, x *BinaryExpr) (Value, error) {
	// Short-circuit logicals.
	if x.Op == "&&" || x.Op == "||" {
		l, err := in.evalCond(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "&&" && !l {
			return Value{Type: TypeBool, B: false}, nil
		}
		if x.Op == "||" && l {
			return Value{Type: TypeBool, B: true}, nil
		}
		r, err := in.evalCond(fr, x.Y)
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeBool, B: r}, nil
	}

	l, err := in.eval(fr, x.X)
	if err != nil {
		return Value{}, err
	}
	r, err := in.eval(fr, x.Y)
	if err != nil {
		return Value{}, err
	}
	// Unify int literals against UID operands.
	if l.Type.IsUIDLike() && r.Type == TypeInt {
		r = coerce(r, l.Type)
	}
	if r.Type.IsUIDLike() && l.Type == TypeInt {
		l = coerce(l, r.Type)
	}

	if isComparison(x.Op) {
		return in.compare(x.Op, l, r, x.Line)
	}
	if l.Type == TypeString && r.Type == TypeString && x.Op == "+" {
		return Value{Type: TypeString, S: l.S + r.S}, nil
	}
	if l.Type != TypeInt || r.Type != TypeInt {
		return Value{}, fmt.Errorf("minic:%d: arithmetic on %s and %s", x.Line, l.Type, r.Type)
	}
	var out int64
	switch x.Op {
	case "+":
		out = l.I + r.I
	case "-":
		out = l.I - r.I
	case "*":
		out = l.I * r.I
	case "/":
		if r.I == 0 {
			return Value{}, fmt.Errorf("minic:%d: division by zero", x.Line)
		}
		out = l.I / r.I
	case "%":
		if r.I == 0 {
			return Value{}, fmt.Errorf("minic:%d: modulo by zero", x.Line)
		}
		out = l.I % r.I
	default:
		return Value{}, fmt.Errorf("minic:%d: unknown operator %q", x.Line, x.Op)
	}
	return Value{Type: TypeInt, I: out}, nil
}

func (in *interp) compare(op string, l, r Value, line int) (Value, error) {
	var truth bool
	switch {
	case l.Type.IsUIDLike() && r.Type.IsUIDLike():
		// Local comparison of UID representations — unsigned, on raw
		// bits. NOTE: in a transformed variant, ordered (<, ≤, >, ≥)
		// local comparisons would need operator reversal (§3.3); the
		// transformer rewrites them to cc_* calls instead (§3.5).
		truth = compareWords(op, l.W, r.W)
	case l.Type == TypeInt && r.Type == TypeInt:
		truth = compareInts(op, l.I, r.I)
	case l.Type == TypeBool && r.Type == TypeBool && (op == "==" || op == "!="):
		truth = (l.B == r.B) == (op == "==")
	case l.Type == TypeString && r.Type == TypeString && (op == "==" || op == "!="):
		truth = (l.S == r.S) == (op == "==")
	default:
		return Value{}, fmt.Errorf("minic:%d: comparison of %s and %s", line, l.Type, r.Type)
	}
	return Value{Type: TypeBool, B: truth}, nil
}

func compareWords(op string, a, b word.Word) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}

func compareInts(op string, a, b int64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	default:
		return a >= b
	}
}

func (in *interp) evalCall(fr *frame, x *CallExpr) (Value, error) {
	if _, isBuiltin := in.builtins[x.Name]; isBuiltin {
		return in.evalBuiltin(fr, x)
	}
	fn, ok := in.prog.Func(x.Name)
	if !ok {
		return Value{}, fmt.Errorf("minic:%d: undefined function %q", x.Line, x.Name)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return in.call(fn, args)
}

// statusOf maps a credential syscall result to C-style 0 / -1.
func statusOf(err error) (Value, error) {
	if err == nil {
		return Value{Type: TypeInt, I: 0}, nil
	}
	if errors.Is(err, sys.ErrKilled) {
		return Value{}, err
	}
	if _, ok := vos.AsErrno(err); ok {
		return Value{Type: TypeInt, I: -1}, nil
	}
	return Value{}, err
}

func (in *interp) evalBuiltin(fr *frame, x *CallExpr) (Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	uidArg := func(i int) word.Word {
		if args[i].Type.IsUIDLike() {
			return args[i].W
		}
		return word.Word(uint32(args[i].I))
	}

	ctx := in.ctx
	switch x.Name {
	case "getuid":
		u, err := ctx.Getuid()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeUID, W: u}, nil
	case "geteuid":
		u, err := ctx.Geteuid()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeUID, W: u}, nil
	case "getgid":
		g, err := ctx.Getgid()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeGID, W: g}, nil
	case "getegid":
		g, err := ctx.Getegid()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeGID, W: g}, nil
	case "setuid":
		return statusOf(ctx.Setuid(uidArg(0)))
	case "seteuid":
		return statusOf(ctx.Seteuid(uidArg(0)))
	case "setgid":
		return statusOf(ctx.Setgid(uidArg(0)))
	case "setegid":
		return statusOf(ctx.Setegid(uidArg(0)))

	case "getpwnam":
		pw, ok, err := libc.Getpwnam(ctx, args[0].S)
		if err != nil {
			if errors.Is(err, sys.ErrKilled) {
				return Value{}, err
			}
			in.lastPWOK = false
			return Value{Type: TypeBool, B: false}, nil
		}
		in.lastPW, in.lastPWOK = pw, ok
		return Value{Type: TypeBool, B: ok}, nil
	case "pw_uid":
		if !in.lastPWOK {
			return Value{Type: TypeUID, W: 0}, nil
		}
		return Value{Type: TypeUID, W: in.lastPW.UID}, nil
	case "pw_gid":
		if !in.lastPWOK {
			return Value{Type: TypeGID, W: 0}, nil
		}
		return Value{Type: TypeGID, W: in.lastPW.GID}, nil
	case "getgrnam":
		gr, ok, err := libc.Getgrnam(ctx, args[0].S)
		if err != nil {
			if errors.Is(err, sys.ErrKilled) {
				return Value{}, err
			}
			in.lastGROK = false
			return Value{Type: TypeBool, B: false}, nil
		}
		in.lastGR, in.lastGROK = gr, ok
		return Value{Type: TypeBool, B: ok}, nil
	case "gr_gid":
		if !in.lastGROK {
			return Value{Type: TypeGID, W: 0}, nil
		}
		return Value{Type: TypeGID, W: in.lastGR.GID}, nil
	case "getpwuid_has":
		_, ok, err := libc.Getpwuid(ctx, uidArg(0))
		if err != nil {
			if errors.Is(err, sys.ErrKilled) {
				return Value{}, err
			}
			return Value{Type: TypeBool, B: false}, nil
		}
		return Value{Type: TypeBool, B: ok}, nil

	case "log":
		if err := ctx.WriteString(sys.FDStderr, args[0].S+"\n"); err != nil {
			return Value{}, err
		}
		return Value{Type: TypeVoid}, nil
	case "log_uid":
		// The §4 pitfall: the UID value lands in shared output and
		// diverges between variants. The transformer scrubs this.
		line := args[0].S + " uid=" + uidArg(1).Decimal() + "\n"
		if err := ctx.WriteString(sys.FDStderr, line); err != nil {
			return Value{}, err
		}
		return Value{Type: TypeVoid}, nil
	case "exit":
		if err := ctx.Exit(word.Word(uint32(args[0].I))); err != nil {
			return Value{}, err
		}
		return Value{}, errExited

	case "uid_value":
		u, err := ctx.UIDValue(uidArg(0))
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeUID, W: u}, nil
	case "cond_chk":
		b, err := ctx.CondChk(args[0].B)
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeBool, B: b}, nil
	case "cc_eq", "cc_neq", "cc_lt", "cc_leq", "cc_gt", "cc_geq":
		var fn func(a, b vos.UID) (bool, error)
		switch x.Name {
		case "cc_eq":
			fn = ctx.CCEq
		case "cc_neq":
			fn = ctx.CCNeq
		case "cc_lt":
			fn = ctx.CCLt
		case "cc_leq":
			fn = ctx.CCLeq
		case "cc_gt":
			fn = ctx.CCGt
		default:
			fn = ctx.CCGeq
		}
		b, err := fn(uidArg(0), uidArg(1))
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeBool, B: b}, nil

	default:
		return Value{}, fmt.Errorf("minic:%d: unimplemented builtin %q", x.Line, x.Name)
	}
}
