// Package isa implements the instruction-set substrate for the
// instruction-set tagging variation (Table 1, [16]): a small 32-bit
// register machine with an assembler, an encoder that applies a
// per-variant tag to every instruction word, and an interpreting VM
// whose fetch stage checks and strips the tag before execution.
//
// Canonical instructions occupy 31 bits; R_i places variant i's tag in
// the high bit. Injected code — which arrives as the same concrete
// bytes in every variant — can carry at most one variant's tag, so at
// least one variant faults at fetch, and the monitor reports the
// divergence. This reproduces the code-injection defence the paper
// cites from the original N-variant work, providing the third Table 1
// row as a running system rather than a formula.
package isa

import (
	"fmt"
	"strconv"
	"strings"

	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

// Op is an instruction opcode.
type Op uint8

// Opcodes. The encoding packs op (7 bits, keeping the tag bit free),
// two register fields and a 16-bit immediate.
const (
	OpNop Op = iota + 1
	// OpMovI: r[a] = imm.
	OpMovI
	// OpMov: r[a] = r[b].
	OpMov
	// OpAdd: r[a] = r[a] + r[b].
	OpAdd
	// OpSub: r[a] = r[a] - r[b].
	OpSub
	// OpXor: r[a] = r[a] ^ r[b].
	OpXor
	// OpAnd: r[a] = r[a] & r[b].
	OpAnd
	// OpOr: r[a] = r[a] | r[b].
	OpOr
	// OpShl: r[a] = r[a] << imm.
	OpShl
	// OpShr: r[a] = r[a] >> imm (logical).
	OpShr
	// OpLoad: r[a] = mem[r[b] + imm].
	OpLoad
	// OpStore: mem[r[b] + imm] = r[a].
	OpStore
	// OpJmp: pc = imm.
	OpJmp
	// OpJz: if r[a] == 0 { pc = imm }.
	OpJz
	// OpJnz: if r[a] != 0 { pc = imm }.
	OpJnz
	// OpOut: append r[a] to the output stream.
	OpOut
	// OpHalt stops execution.
	OpHalt
)

var opNames = map[Op]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpXor: "xor", OpAnd: "and", OpOr: "or", OpShl: "shl", OpShr: "shr",
	OpLoad: "load", OpStore: "store", OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpOut: "out", OpHalt: "halt",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// String names the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumRegs is the register-file size.
const NumRegs = 8

// MemWords is the data-memory size in words.
const MemWords = 256

// Inst is a decoded instruction.
type Inst struct {
	// Op is the operation.
	Op Op
	// A and B are register indices.
	A, B uint8
	// Imm is the 16-bit immediate.
	Imm uint16
}

// Encode packs the instruction into a canonical (untagged, 31-bit)
// word: [tag:1][op:7][a:4][b:4][imm:16].
func (i Inst) Encode() (word.Word, error) {
	if i.Op > 0x7F {
		return 0, fmt.Errorf("isa: opcode %d exceeds 7 bits", i.Op)
	}
	if i.A >= NumRegs || i.B >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %v", i)
	}
	w := word.Word(i.Op)<<24 | word.Word(i.A&0xF)<<20 | word.Word(i.B&0xF)<<16 | word.Word(i.Imm)
	return w, nil
}

// Decode unpacks a canonical instruction word.
func Decode(w word.Word) (Inst, error) {
	if w&word.HighBit != 0 {
		return Inst{}, fmt.Errorf("isa: word %s is not canonical (tag bit set)", w)
	}
	inst := Inst{
		Op:  Op(w >> 24),
		A:   uint8(w >> 20 & 0xF),
		B:   uint8(w >> 16 & 0xF),
		Imm: uint16(w),
	}
	if _, known := opNames[inst.Op]; !known {
		return Inst{}, fmt.Errorf("isa: illegal opcode %d in %s", inst.Op, w)
	}
	if inst.A >= NumRegs || inst.B >= NumRegs {
		return Inst{}, fmt.Errorf("isa: register out of range in %s", w)
	}
	return inst, nil
}

// Assemble translates assembly text (one instruction per line,
// "#"-comments) into canonical instruction words.
//
//	movi r1, 40
//	add  r1, r2
//	jz   r1, 7
//	out  r1
//	halt
func Assemble(src string) ([]word.Word, error) {
	var out []word.Word
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		inst, err := parseInst(line)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
		w, err := inst.Encode()
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %w", lineNo+1, err)
		}
		out = append(out, w)
	}
	return out, nil
}

func parseInst(line string) (Inst, error) {
	fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	op, ok := opByName[fields[0]]
	if !ok {
		return Inst{}, fmt.Errorf("unknown mnemonic %q", fields[0])
	}
	args := fields[1:]
	reg := func(s string) (uint8, error) {
		if !strings.HasPrefix(s, "r") {
			return 0, fmt.Errorf("expected register, got %q", s)
		}
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n >= NumRegs {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return uint8(n), nil
	}
	imm := func(s string) (uint16, error) {
		n, err := strconv.ParseUint(s, 0, 16)
		if err != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return uint16(n), nil
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d operands, got %d", op, n, len(args))
		}
		return nil
	}

	switch op {
	case OpNop, OpHalt:
		if err := need(0); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op}, nil
	case OpMovI, OpShl, OpShr, OpJz, OpJnz:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		a, err := reg(args[0])
		if err != nil {
			return Inst{}, err
		}
		im, err := imm(args[1])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, A: a, Imm: im}, nil
	case OpMov, OpAdd, OpSub, OpXor, OpAnd, OpOr:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		a, err := reg(args[0])
		if err != nil {
			return Inst{}, err
		}
		b, err := reg(args[1])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, A: a, B: b}, nil
	case OpLoad, OpStore:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		a, err := reg(args[0])
		if err != nil {
			return Inst{}, err
		}
		b, err := reg(args[1])
		if err != nil {
			return Inst{}, err
		}
		im, err := imm(args[2])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, A: a, B: b, Imm: im}, nil
	case OpJmp:
		if err := need(1); err != nil {
			return Inst{}, err
		}
		im, err := imm(args[0])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Imm: im}, nil
	case OpOut:
		if err := need(1); err != nil {
			return Inst{}, err
		}
		a, err := reg(args[0])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, A: a}, nil
	default:
		return Inst{}, fmt.Errorf("unhandled op %v", op)
	}
}

// TagImage applies the variant's reexpression function to every
// instruction of a canonical program — the trusted build step that
// produces variant i's executable image.
func TagImage(canonical []word.Word, f reexpress.Func) ([]word.Word, error) {
	out := make([]word.Word, len(canonical))
	for i, w := range canonical {
		tagged, err := f.Apply(w)
		if err != nil {
			return nil, fmt.Errorf("isa: tag instruction %d: %w", i, err)
		}
		out[i] = tagged
	}
	return out, nil
}

// TagFaultError is the VM's alarm state: a fetched instruction carried
// the wrong tag (injected code) or decoded illegally.
type TagFaultError struct {
	// PC is the faulting instruction index.
	PC int
	// Cause is the underlying decode/tag failure.
	Cause error
}

// Error implements the error interface.
func (e *TagFaultError) Error() string {
	return fmt.Sprintf("isa: illegal instruction at pc=%d: %v", e.PC, e.Cause)
}

// Unwrap exposes the cause.
func (e *TagFaultError) Unwrap() error { return e.Cause }

// VM executes a tagged image. Each variant of an N-variant deployment
// runs its own VM over its own tagged image.
type VM struct {
	// Regs is the register file.
	Regs [NumRegs]word.Word
	// Mem is the data memory.
	Mem [MemWords]word.Word
	// Output collects OpOut values.
	Output []word.Word

	image []word.Word
	f     reexpress.Func
	pc    int
	steps int
}

// NewVM builds a VM for a tagged image; f is the variant's
// reexpression function, whose inverse runs at fetch (the R⁻¹ before
// the target interpreter in Figure 2).
func NewVM(image []word.Word, f reexpress.Func) *VM {
	img := make([]word.Word, len(image))
	copy(img, image)
	return &VM{image: img, f: f}
}

// Inject overwrites instructions starting at pc with raw concrete
// words — the attacker's code-injection primitive. The same raw words
// go to every variant (same input), so they can carry at most one
// valid tag.
func (v *VM) Inject(pc int, code []word.Word) error {
	if pc < 0 || pc+len(code) > len(v.image) {
		return fmt.Errorf("isa: inject at %d..%d outside image of %d words", pc, pc+len(code), len(v.image))
	}
	copy(v.image[pc:], code)
	return nil
}

// Run executes until halt, the step budget, or a fault.
func (v *VM) Run(maxSteps int) error {
	for v.steps = 0; v.steps < maxSteps; v.steps++ {
		if v.pc < 0 || v.pc >= len(v.image) {
			return fmt.Errorf("isa: pc %d outside image", v.pc)
		}
		// Fetch: invert the tag (check + strip), then decode.
		canonical, err := v.f.Invert(v.image[v.pc])
		if err != nil {
			return &TagFaultError{PC: v.pc, Cause: err}
		}
		inst, err := Decode(canonical)
		if err != nil {
			return &TagFaultError{PC: v.pc, Cause: err}
		}
		next := v.pc + 1
		switch inst.Op {
		case OpNop:
		case OpMovI:
			v.Regs[inst.A] = word.Word(inst.Imm)
		case OpMov:
			v.Regs[inst.A] = v.Regs[inst.B]
		case OpAdd:
			v.Regs[inst.A] += v.Regs[inst.B]
		case OpSub:
			v.Regs[inst.A] -= v.Regs[inst.B]
		case OpXor:
			v.Regs[inst.A] ^= v.Regs[inst.B]
		case OpAnd:
			v.Regs[inst.A] &= v.Regs[inst.B]
		case OpOr:
			v.Regs[inst.A] |= v.Regs[inst.B]
		case OpShl:
			v.Regs[inst.A] <<= uint(inst.Imm & 31)
		case OpShr:
			v.Regs[inst.A] >>= uint(inst.Imm & 31)
		case OpLoad:
			addr := int(v.Regs[inst.B]) + int(inst.Imm)
			if addr < 0 || addr >= MemWords {
				return fmt.Errorf("isa: load from %d outside memory", addr)
			}
			v.Regs[inst.A] = v.Mem[addr]
		case OpStore:
			addr := int(v.Regs[inst.B]) + int(inst.Imm)
			if addr < 0 || addr >= MemWords {
				return fmt.Errorf("isa: store to %d outside memory", addr)
			}
			v.Mem[addr] = v.Regs[inst.A]
		case OpJmp:
			next = int(inst.Imm)
		case OpJz:
			if v.Regs[inst.A] == 0 {
				next = int(inst.Imm)
			}
		case OpJnz:
			if v.Regs[inst.A] != 0 {
				next = int(inst.Imm)
			}
		case OpOut:
			v.Output = append(v.Output, v.Regs[inst.A])
		case OpHalt:
			return nil
		}
		v.pc = next
	}
	return fmt.Errorf("isa: step budget (%d) exhausted", maxSteps)
}

// RunN executes one tagged variant per reexpression function on the
// same injected input and reports divergence: it returns the
// per-variant outputs and a non-nil alarm error if any variant faulted
// or any two outputs differ — the monitor's view of Table 1's
// instruction-set tagging row, generalized to N variants (a
// DiversitySpec's instruction-tag layer deploys here, not under the
// syscall monitor).
func RunN(canonical []word.Word, funcs []reexpress.Func, inject []word.Word, injectAt int, maxSteps int) ([][]word.Word, error) {
	n := len(funcs)
	outs := make([][]word.Word, n)
	vms := make([]*VM, n)
	for i, f := range funcs {
		img, err := TagImage(canonical, f)
		if err != nil {
			return outs, err
		}
		vm := NewVM(img, f)
		if len(inject) > 0 {
			if err := vm.Inject(injectAt, inject); err != nil {
				return outs, err
			}
		}
		vms[i] = vm
	}
	errs := make([]error, n)
	faulted := false
	for i, vm := range vms {
		errs[i] = vm.Run(maxSteps)
		outs[i] = vm.Output
		if errs[i] != nil {
			faulted = true
		}
	}
	if faulted {
		return outs, fmt.Errorf("isa: variant divergence: %v", errs)
	}
	for i := 1; i < n; i++ {
		if len(outs[i]) != len(outs[0]) {
			return outs, fmt.Errorf("isa: output length divergence: variant %d emitted %d words, variant 0 %d", i, len(outs[i]), len(outs[0]))
		}
		for j := range outs[0] {
			if outs[i][j] != outs[0][j] {
				return outs, fmt.Errorf("isa: output divergence at %d: variant %d %s vs variant 0 %s", j, i, outs[i][j], outs[0][j])
			}
		}
	}
	return outs, nil
}

// RunSpec deploys a DiversitySpec's instruction-tag layer: one tagged
// variant per effective (stack-composed) tag function.
func RunSpec(canonical []word.Word, spec *reexpress.Spec, inject []word.Word, injectAt int, maxSteps int) ([][]word.Word, error) {
	funcs := spec.FuncsFor(reexpress.LayerInstructionTags)
	if funcs == nil {
		return nil, fmt.Errorf("isa: spec has no instruction-tag layer: %s", spec)
	}
	return RunN(canonical, funcs, inject, injectAt, maxSteps)
}
