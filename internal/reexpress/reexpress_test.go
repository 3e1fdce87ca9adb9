package reexpress

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"nvariant/internal/word"
)

func TestIdentity(t *testing.T) {
	f := Identity{}
	for _, x := range []word.Word{0, 1, word.HighBit, word.Max} {
		got, err := f.Apply(x)
		if err != nil || got != x {
			t.Errorf("Apply(%s) = (%s, %v), want (%s, nil)", x, got, err, x)
		}
		inv, err := f.Invert(x)
		if err != nil || inv != x {
			t.Errorf("Invert(%s) = (%s, %v), want (%s, nil)", x, inv, err, x)
		}
	}
}

func TestUIDMaskRootRepresentation(t *testing.T) {
	// Under R₁, root (UID 0) is represented as 0x7FFFFFFF (§3.2).
	f := XORMask{Mask: UIDMask}
	got, err := f.Apply(0)
	if err != nil {
		t.Fatalf("Apply(0): %v", err)
	}
	if got != 0x7FFFFFFF {
		t.Errorf("R₁(0) = %s, want 0x7FFFFFFF", got)
	}
}

func TestXORMaskInvolution(t *testing.T) {
	f := XORMask{Mask: UIDMask}
	check := func(x uint32) bool {
		w := word.Word(x)
		y, err := f.Apply(w)
		if err != nil {
			return false
		}
		back, err := f.Invert(y)
		return err == nil && back == w
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOffsetPartitionFaults(t *testing.T) {
	// Variant 1's inverse must fault on addresses in variant 0's
	// partition — this models the segmentation fault of Figure 1.
	r1 := AddOffset{Offset: word.HighBit, Partition: true}
	if _, err := r1.Invert(0x00001000); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("Invert(low address) error = %v, want ErrOutOfDomain", err)
	}
	got, err := r1.Invert(0x80001000)
	if err != nil {
		t.Fatalf("Invert(high address): %v", err)
	}
	if got != 0x00001000 {
		t.Errorf("Invert(0x80001000) = %s, want 0x00001000", got)
	}
}

func TestAddOffsetApplyOutOfDomain(t *testing.T) {
	r0 := AddOffset{Offset: 0, Partition: true}
	if _, err := r0.Apply(word.HighBit | 4); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("Apply(high address) error = %v, want ErrOutOfDomain", err)
	}
}

func TestTagBitRoundTrip(t *testing.T) {
	r0 := TagBit{Tag: false}
	r1 := TagBit{Tag: true}
	inst := word.Word(0x00ABCDEF)

	y0, err := r0.Apply(inst)
	if err != nil {
		t.Fatalf("r0.Apply: %v", err)
	}
	if y0 != inst {
		t.Errorf("r0.Apply = %s, want %s", y0, inst)
	}
	y1, err := r1.Apply(inst)
	if err != nil {
		t.Fatalf("r1.Apply: %v", err)
	}
	if y1 != inst|word.HighBit {
		t.Errorf("r1.Apply = %s, want %s", y1, inst|word.HighBit)
	}
}

func TestTagBitWrongTagFaults(t *testing.T) {
	r0 := TagBit{Tag: false}
	r1 := TagBit{Tag: true}
	// An instruction tagged for variant 1 must fault on variant 0 and
	// vice versa — injected code cannot carry both tags at once.
	if _, err := r0.Invert(word.HighBit | 5); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("r0.Invert(tagged-1) error = %v, want ErrOutOfDomain", err)
	}
	if _, err := r1.Invert(5); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("r1.Invert(tagged-0) error = %v, want ErrOutOfDomain", err)
	}
}

func TestTagBitApplyOutOfDomain(t *testing.T) {
	r1 := TagBit{Tag: true}
	if _, err := r1.Apply(word.HighBit); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("Apply(32-bit inst) error = %v, want ErrOutOfDomain", err)
	}
}

func TestTable1Properties(t *testing.T) {
	// Every row of Table 1 must satisfy the inverse property and the
	// disjointness property on the adversarial sample set.
	samples := BoundarySamples()
	for _, v := range Table1() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			for _, f := range v.Pair.Funcs() {
				if err := CheckInverse(f, samples); err != nil {
					t.Errorf("inverse property: %v", err)
				}
			}
			if err := CheckDisjoint(v.Pair.R0, v.Pair.R1, samples); err != nil {
				t.Errorf("disjointness property: %v", err)
			}
		})
	}
}

func TestFullFlipVariationProperties(t *testing.T) {
	pair, samples := UIDFullFlipVariation().Pair, BoundarySamples()
	for _, f := range pair.Funcs() {
		if err := CheckInverse(f, samples); err != nil {
			t.Errorf("inverse property: %v", err)
		}
	}
	if err := CheckDisjoint(pair.R0, pair.R1, samples); err != nil {
		t.Errorf("disjointness property: %v", err)
	}
}

func TestQuickUIDDisjointness(t *testing.T) {
	// ∀x: R⁻¹₀(x) ≠ R⁻¹₁(x) for the UID variation. XOR with a nonzero
	// mask always changes the value, so this is exact, not sampled.
	p := UIDVariation().Pair
	f := func(x uint32) bool {
		w := word.Word(x)
		v0, err0 := p.R0.Invert(w)
		v1, err1 := p.R1.Invert(w)
		if err0 != nil || err1 != nil {
			return false // both inverses are total for the UID variation
		}
		return v0 != v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddressDisjointness(t *testing.T) {
	// For partitioned address spaces, identical concrete addresses
	// never invert successfully in both variants.
	p := AddressPartitioning().Pair
	f := func(x uint32) bool {
		w := word.Word(x)
		_, err0 := p.R0.Invert(w)
		_, err1 := p.R1.Invert(w)
		return (err0 == nil) != (err1 == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckDisjointDetectsViolation(t *testing.T) {
	// Identity vs identity trivially violates disjointness.
	err := CheckDisjoint(Identity{}, Identity{}, []word.Word{42})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("CheckDisjoint(identity, identity) = %v, want DivergenceError", err)
	}
	if div.Value != 42 {
		t.Errorf("DivergenceError.Value = %s, want 42", div.Value)
	}
}

func TestCheckInverseDetectsViolation(t *testing.T) {
	f := brokenFunc{}
	err := CheckInverse(f, []word.Word{7})
	if err == nil {
		t.Fatal("CheckInverse(broken) = nil, want error")
	}
}

// brokenFunc deliberately violates the inverse property.
type brokenFunc struct{}

func (brokenFunc) Name() string                          { return "broken" }
func (brokenFunc) Apply(x word.Word) (word.Word, error)  { return x + 1, nil }
func (brokenFunc) Invert(y word.Word) (word.Word, error) { return y + 1, nil }
func (brokenFunc) Domain(word.Word) bool                 { return true }

func TestHighBitOverwriteResidualWeakness(t *testing.T) {
	// §3.2: the UID mask preserves the high bit, so an attack that
	// flips ONLY the high bit in both variants yields values that
	// still invert to the same UID — the acknowledged residual gap.
	p := UIDVariation().Pair
	uid := word.Word(1000)
	rep0, err := p.R0.Apply(uid)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := p.R1.Apply(uid)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker flips the high bit in each variant's memory (a partial
	// overwrite that does not need to inject a full identical word).
	inv0, err := p.R0.Invert(rep0 | word.HighBit)
	if err != nil {
		t.Fatal(err)
	}
	inv1, err := p.R1.Invert(rep1 | word.HighBit)
	if err != nil {
		t.Fatal(err)
	}
	if inv0 != inv1 {
		t.Fatalf("high-bit overwrite diverged (%s vs %s); expected the residual gap", inv0, inv1)
	}

	// The full-flip mask closes the gap: applying the SAME high-bit-set
	// operation to both variants' representations now yields different
	// post-inverse UIDs, so the monitor detects the corruption.
	pf := UIDFullFlipVariation().Pair
	rep0f, _ := pf.R0.Apply(uid)
	rep1f, _ := pf.R1.Apply(uid)
	inv0f, _ := pf.R0.Invert(rep0f | word.HighBit)
	inv1f, _ := pf.R1.Invert(rep1f | word.HighBit)
	if inv0f == inv1f {
		t.Error("full-flip mask should break equality under high-bit-set overwrite")
	}
}

func TestVariationNames(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 has %d rows, want 4", len(rows))
	}
	wantNames := []string{
		"Address Space Partitioning",
		"Extended Address Space Partitioning",
		"Instruction Set Tagging",
		"UID Variation",
	}
	for i, v := range rows {
		if v.Name != wantNames[i] {
			t.Errorf("row %d name = %q, want %q", i, v.Name, wantNames[i])
		}
	}
}

func TestTargetTypeString(t *testing.T) {
	tests := []struct {
		tt   TargetType
		want string
	}{
		{TargetAddress, "Address"},
		{TargetInstruction, "Instruction"},
		{TargetUID, "UID"},
		{TargetType(99), "Unknown"},
	}
	for _, tc := range tests {
		if got := tc.tt.String(); got != tc.want {
			t.Errorf("TargetType(%d).String() = %q, want %q", tc.tt, got, tc.want)
		}
	}
}

func TestFuncNames(t *testing.T) {
	for _, tc := range []struct {
		f    Func
		want string
	}{
		{Identity{}, "identity"},
		{XORMask{Mask: UIDMask}, "xor(0x7FFFFFFF)"},
		{AddOffset{Offset: word.HighBit, Partition: true}, "addoffset(0x80000000,partitioned)"},
		{AddOffset{Offset: 16}, "addoffset(0x00000010)"},
		{TagBit{Tag: true}, "tag(1||inst)"},
		{TagBit{Tag: false}, "tag(0||inst)"},
	} {
		if got := tc.f.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestDivergenceErrorMessage(t *testing.T) {
	err := &DivergenceError{Value: 3, Detail: "boom"}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "0x00000003") {
		t.Errorf("unexpected message %q", err.Error())
	}
}

func TestBoundarySamplesCoverage(t *testing.T) {
	samples := BoundarySamples()
	if len(samples) < 1<<16 {
		t.Fatalf("BoundarySamples too small: %d", len(samples))
	}
	seen := make(map[word.Word]bool, len(samples))
	for _, s := range samples {
		seen[s] = true
	}
	for _, must := range []word.Word{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		if !seen[must] {
			t.Errorf("BoundarySamples missing %s", must)
		}
	}
}
