package isa

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

// sumProgram computes 1+2+...+10 and outputs the sum (55).
const sumProgram = `
# r1 = accumulator, r2 = i, r3 = constant 1, r4 = limit scratch
    movi r1, 0
    movi r2, 10
    movi r3, 1
    jz   r2, 7      # while i != 0
    add  r1, r2
    sub  r2, r3
    jmp  3
    out  r1
    halt
`

func assemble(t *testing.T, src string) []word.Word {
	t.Helper()
	code, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestAssembleAndRun(t *testing.T) {
	code := assemble(t, sumProgram)
	vm := NewVM(code, reexpress.TagBit{Tag: false})
	if err := vm.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(vm.Output) != 1 || vm.Output[0] != 55 {
		t.Errorf("output = %v, want [55]", vm.Output)
	}
}

func TestTaggedVariantsProduceIdenticalOutput(t *testing.T) {
	// Normal equivalence for instruction tagging: both variants run
	// the same canonical program under different tags.
	code := assemble(t, sumProgram)
	outs, err := RunN(code, reexpress.InstructionTagging().Pair.Funcs(), nil, 0, 1000)
	if err != nil {
		t.Fatalf("benign divergence: %v", err)
	}
	if outs[0][0] != 55 || outs[1][0] != 55 {
		t.Errorf("outputs = %v", outs)
	}
}

func TestCodeInjectionDetected(t *testing.T) {
	// The attacker injects raw (tag-0-shaped) code that outputs a
	// forged value. Variant 0 would execute it; variant 1 faults at
	// fetch — detection, exactly the Table 1 argument.
	code := assemble(t, sumProgram)
	payload := assemble(t, "movi r1, 1337\nout r1\nhalt")
	_, err := RunN(code, reexpress.InstructionTagging().Pair.Funcs(), payload, 3, 1000)
	if err == nil {
		t.Fatal("injected code ran in both variants undetected")
	}
	if !strings.Contains(err.Error(), "divergence") {
		t.Errorf("err = %v", err)
	}
}

func TestInjectionSucceedsOnSingleUntaggedVariant(t *testing.T) {
	// Against a single variant with the matching tag, the same payload
	// succeeds — diversity, not secrecy, provides the protection.
	code := assemble(t, sumProgram)
	img, err := TagImage(code, reexpress.TagBit{Tag: false})
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(img, reexpress.TagBit{Tag: false})
	payload := assemble(t, "movi r1, 1337\nout r1\nhalt")
	if err := vm.Inject(3, payload); err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(vm.Output) != 1 || vm.Output[0] != 1337 {
		t.Errorf("output = %v, want [1337] (exploit works single-variant)", vm.Output)
	}
}

func TestTagFaultError(t *testing.T) {
	code := assemble(t, "halt")
	img, err := TagImage(code, reexpress.TagBit{Tag: true})
	if err != nil {
		t.Fatal(err)
	}
	// Run variant-1 image under variant-0 inverse: tag mismatch.
	vm := NewVM(img, reexpress.TagBit{Tag: false})
	runErr := vm.Run(10)
	var fault *TagFaultError
	if !errors.As(runErr, &fault) {
		t.Fatalf("err = %v, want TagFaultError", runErr)
	}
	if fault.PC != 0 {
		t.Errorf("fault pc = %d, want 0", fault.PC)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: OpNop},
		{Op: OpMovI, A: 3, Imm: 0xBEEF},
		{Op: OpAdd, A: 1, B: 7},
		{Op: OpLoad, A: 2, B: 4, Imm: 100},
		{Op: OpJmp, Imm: 12},
		{Op: OpHalt},
	}
	for _, in := range insts {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		if w&word.HighBit != 0 {
			t.Errorf("Encode(%v) used the tag bit", in)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%s): %v", w, err)
		}
		if out != in {
			t.Errorf("round trip %v -> %v", in, out)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(word.HighBit); err == nil {
		t.Error("tagged word decoded")
	}
	if _, err := Decode(0x7F000000); err == nil {
		t.Error("illegal opcode decoded")
	}
	// Register out of range: op=movi a=9.
	bad := word.Word(OpMovI)<<24 | 9<<20
	if _, err := Decode(bad); err == nil {
		t.Error("register 9 decoded")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := (Inst{Op: 0xFF}).Encode(); err == nil {
		t.Error("8-bit opcode encoded")
	}
	if _, err := (Inst{Op: OpMov, A: 8}).Encode(); err == nil {
		t.Error("register 8 encoded")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"movi r9, 1",
		"movi r1",
		"add r1, 5",
		"movi r1, 99999999",
		"jmp r1",
		"load r1, r2",
		"halt r1",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleCommentsAndBlank(t *testing.T) {
	code, err := Assemble("# full comment line\n\n  halt  # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 1 {
		t.Errorf("code = %v, want 1 instruction", code)
	}
}

func TestALUOperations(t *testing.T) {
	src := `
    movi r1, 12
    movi r2, 10
    and  r1, r2    # 8
    movi r3, 3
    or   r1, r3    # 11
    xor  r1, r2    # 1
    shl  r1, 4     # 16
    shr  r1, 2     # 4
    mov  r4, r1
    out  r4
    halt
`
	vm := NewVM(assemble(t, src), reexpress.TagBit{Tag: false})
	if err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(vm.Output) != 1 || vm.Output[0] != 4 {
		t.Errorf("output = %v, want [4]", vm.Output)
	}
}

func TestLoadStore(t *testing.T) {
	src := `
    movi r1, 77
    movi r2, 5
    store r1, r2, 10   # mem[15] = 77
    load  r3, r2, 10   # r3 = mem[15]
    out   r3
    halt
`
	vm := NewVM(assemble(t, src), reexpress.TagBit{Tag: false})
	if err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if vm.Output[0] != 77 {
		t.Errorf("output = %v, want [77]", vm.Output)
	}
}

func TestMemoryBounds(t *testing.T) {
	src := "movi r2, 300\nload r1, r2, 0\nhalt"
	vm := NewVM(assemble(t, src), reexpress.TagBit{Tag: false})
	if err := vm.Run(100); err == nil {
		t.Error("out-of-bounds load succeeded")
	}
	src2 := "movi r2, 300\nstore r1, r2, 0\nhalt"
	vm2 := NewVM(assemble(t, src2), reexpress.TagBit{Tag: false})
	if err := vm2.Run(100); err == nil {
		t.Error("out-of-bounds store succeeded")
	}
}

func TestStepBudget(t *testing.T) {
	vm := NewVM(assemble(t, "jmp 0"), reexpress.TagBit{Tag: false})
	if err := vm.Run(50); err == nil {
		t.Error("infinite loop terminated")
	}
}

func TestPCOutOfImage(t *testing.T) {
	vm := NewVM(assemble(t, "jmp 100"), reexpress.TagBit{Tag: false})
	if err := vm.Run(50); err == nil {
		t.Error("pc outside image did not fault")
	}
}

func TestInjectBounds(t *testing.T) {
	vm := NewVM(assemble(t, "halt"), reexpress.TagBit{Tag: false})
	if err := vm.Inject(5, []word.Word{0}); err == nil {
		t.Error("out-of-range inject succeeded")
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	ops := []Op{OpNop, OpMovI, OpMov, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpShl, OpShr, OpLoad, OpStore, OpJmp, OpJz, OpJnz, OpOut, OpHalt}
	f := func(opIdx, a, b uint8, imm uint16) bool {
		in := Inst{Op: ops[int(opIdx)%len(ops)], A: a % NumRegs, B: b % NumRegs, Imm: imm}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(w)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpHalt.String() != "halt" || Op(99).String() != "op(99)" {
		t.Error("op names wrong")
	}
}

func TestRunSpecNVariantTagging(t *testing.T) {
	code, err := Assemble(`
    movi r1, 7
    out  r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := reexpress.NewSpec(3, reexpress.InstructionTagLayer(3))
	if err != nil {
		t.Fatal(err)
	}
	// Benign: all three tagged variants produce identical output.
	outs, err := RunSpec(code, spec, nil, 0, 100)
	if err != nil {
		t.Fatalf("benign 3-variant run alarmed: %v", err)
	}
	if len(outs) != 3 {
		t.Fatalf("outputs = %d", len(outs))
	}
	for i, o := range outs {
		if len(o) != 1 || o[0] != 7 {
			t.Errorf("variant %d output = %v", i, o)
		}
	}
	// Injected untagged code is valid in at most one variant's tag
	// space: the group must diverge.
	inject, err := Assemble(`
    movi r1, 9
    out  r1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpec(code, spec, inject, 0, 100); err == nil {
		t.Fatal("injected untagged code not detected at N=3")
	}
	// A spec without the layer is refused.
	uidOnly := reexpress.Generate(5, 3)
	if _, err := RunSpec(code, uidOnly, nil, 0, 100); err == nil {
		t.Fatal("spec without an instruction-tag layer accepted")
	}
}
