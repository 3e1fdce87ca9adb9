package reexpress

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"nvariant/internal/word"
)

// assertSpecProperties is the N-wide property assertion of the
// security argument: for every diversified layer kind, every sample x,
// and every variant pair i ≠ j, the inverses R⁻¹ᵢ(x) and R⁻¹ⱼ(x) must
// not both succeed with equal values — and each variant's function
// must round-trip its whole domain.
func assertSpecProperties(t *testing.T, s *Spec, samples []word.Word) {
	t.Helper()
	for _, kind := range []LayerKind{LayerUID, LayerAddressPartition} {
		funcs := s.FuncsFor(kind)
		if funcs == nil {
			continue
		}
		if len(funcs) != s.N() {
			t.Fatalf("%s layer: %d funcs for %d variants", kind, len(funcs), s.N())
		}
		for i, f := range funcs {
			if err := CheckInverse(f, samples); err != nil {
				t.Errorf("%s layer, variant %d: inverse property: %v", kind, i, err)
			}
		}
		// The explicit pairwise loop (rather than CheckDisjointN) keeps
		// this test independent of the checker it is meant to cover.
		for _, x := range samples {
			for i := 0; i < len(funcs); i++ {
				vi, erri := funcs[i].Invert(x)
				if erri != nil {
					continue
				}
				for j := i + 1; j < len(funcs); j++ {
					vj, errj := funcs[j].Invert(x)
					if errj == nil && vi == vj {
						t.Fatalf("%s layer: R⁻¹_%d(%s) == R⁻¹_%d(%s) == %s (disjointness violated)",
							kind, i, x, j, x, vi)
					}
				}
			}
		}
	}
}

func TestGeneratedSpecsSatisfyNWideDisjointness(t *testing.T) {
	samples := BoundarySamples()
	for n := 2; n <= 5; n++ {
		for seed := int64(1); seed <= 6; seed++ {
			s := Generate(seed*31+int64(n), n)
			if s.N() != n {
				t.Fatalf("n=%d seed=%d: spec has %d variants", n, seed, s.N())
			}
			assertSpecProperties(t, s, samples)
		}
	}
}

func TestGeneratedFullStackSpecs(t *testing.T) {
	samples := BoundarySamples()
	for n := 2; n <= 5; n++ {
		s := Generate(int64(100+n), n, LayerUID, LayerAddressPartition, LayerUnsharedFiles)
		if !s.HasLayer(LayerUID) || !s.HasLayer(LayerAddressPartition) || !s.HasLayer(LayerUnsharedFiles) {
			t.Fatalf("n=%d: stack incomplete: %s", n, s)
		}
		if got := s.UnsharedPaths(); len(got) != 2 {
			t.Fatalf("n=%d: unshared paths = %v", n, got)
		}
		assertSpecProperties(t, s, samples)
	}
}

func TestGeneratedMasksPairwiseByteDistinct(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := Generate(int64(7+n), n)
		funcs := s.UIDFuncs()
		masks := make([]word.Word, len(funcs))
		for i, f := range funcs {
			switch v := f.(type) {
			case Identity:
				masks[i] = 0
			case XORMask:
				masks[i] = v.Mask
			default:
				t.Fatalf("variant %d: unexpected func %T", i, f)
			}
			if masks[i]&word.HighBit != 0 {
				t.Errorf("variant %d mask %s has the sign bit set", i, masks[i])
			}
			if i > 0 && bits.OnesCount32(uint32(masks[i])) < MinMaskBits {
				t.Errorf("variant %d mask %s flips fewer than %d bits", i, masks[i], MinMaskBits)
			}
		}
		for i := 0; i < len(masks); i++ {
			for j := i + 1; j < len(masks); j++ {
				for b := 0; b < word.Size; b++ {
					bi, _ := masks[i].Byte(b)
					bj, _ := masks[j].Byte(b)
					if bi == bj {
						t.Errorf("n=%d: masks %s and %s share byte %d — a single-byte overwrite there would not diverge between variants %d and %d",
							n, masks[i], masks[j], b, i, j)
					}
				}
			}
		}
	}
}

func TestNewSpecRejectsRepeatedKind(t *testing.T) {
	// Two UID layers would act per variant as xor(a^b), and those
	// masks can share a byte position: every spec holds at most one
	// layer of each kind, so the stack is refused outright.
	inner := UIDLayer(Identity{}, XORMask{Mask: 0x7FFFFFFF}, XORMask{Mask: 0x3C5A7E99})
	outer := UIDLayer(Identity{}, XORMask{Mask: 0x00FF00FF}, XORMask{Mask: 0x013579BD})
	_, err := NewSpec(3, inner, outer)
	if err == nil || !strings.Contains(err.Error(), "second uid layer") {
		t.Fatalf("NewSpec with two UID layers: err = %v, want the repeated-kind refusal", err)
	}
}

func TestNewSpecRejectsViolations(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		layers []Layer
	}{
		{"too few variants", 1, []Layer{UIDLayer(Identity{})}},
		{"no layers", 2, nil},
		{"func count mismatch", 3, []Layer{UIDLayer(Identity{}, XORMask{Mask: UIDMask})}},
		{"identity collision", 2, []Layer{UIDLayer(Identity{}, Identity{})}},
		{"duplicate masks", 3, []Layer{UIDLayer(Identity{}, XORMask{Mask: UIDMask}, XORMask{Mask: UIDMask})}},
		{"empty unshared", 2, []Layer{UIDLayer(Identity{}, XORMask{Mask: UIDMask}), {Kind: LayerUnsharedFiles}}},
	}
	for _, tc := range cases {
		if _, err := NewSpec(tc.n, tc.layers...); err == nil {
			t.Errorf("%s: NewSpec accepted an invalid spec", tc.name)
		}
	}
}

func TestFromVariationAllTable1Rows(t *testing.T) {
	// Instruction tagging (row 3) has no layer kind, so its row builds
	// no spec; every other row builds one that holds the properties.
	for _, v := range Table1() {
		s, err := FromVariation(v)
		if v.Target == TargetInstruction {
			if err == nil {
				t.Errorf("%s: built %s, want an error", v.Name, s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if s.N() != 2 {
			t.Errorf("%s: n = %d", v.Name, s.N())
		}
		assertSpecProperties(t, s, BoundarySamples())
	}
}

func TestSlotFuncsAreNWayDisjoint(t *testing.T) {
	for n := 2; n <= 5; n++ {
		l := AddressPartitionLayer(n)
		if err := CheckDisjointN(l.Funcs, BoundarySamples()); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		for i, f := range l.Funcs {
			if err := CheckInverse(f, BoundarySamples()); err != nil {
				t.Errorf("n=%d variant %d: %v", n, i, err)
			}
		}
	}
}

func TestSlotRoundTripAndFault(t *testing.T) {
	f := Slot{Index: 2, Bits: 2}
	y, err := f.Apply(0x00001234)
	if err != nil {
		t.Fatal(err)
	}
	if y != 0x80001234 {
		t.Fatalf("apply = %s", y)
	}
	back, err := f.Invert(y)
	if err != nil || back != 0x00001234 {
		t.Fatalf("invert = %s, %v", back, err)
	}
	if _, err := f.Invert(0x40001234); err == nil {
		t.Fatal("inverting a value from another slot did not fault")
	}
	if _, err := f.Apply(0x40000000); err == nil {
		t.Fatal("applying an out-of-domain value did not fault")
	}
}

func TestGenerateFromStreamIsDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		s := GenerateFrom(rng, 3)
		key := s.VariantName(1) + "/" + s.VariantName(2)
		if seen[key] {
			t.Errorf("draw %d repeated representation %s", i, key)
		}
		seen[key] = true
	}
}

func TestCheckDisjointNCatchesCollision(t *testing.T) {
	funcs := []Func{Identity{}, XORMask{Mask: UIDMask}, Identity{}}
	err := CheckDisjointN(funcs, BoundarySamples())
	if err == nil {
		t.Fatal("two identity variants accepted")
	}
	if !strings.Contains(err.Error(), "disjointness violated") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestParseStack(t *testing.T) {
	got, err := ParseStack("uid, addr,files")
	if err != nil {
		t.Fatal(err)
	}
	want := []LayerKind{LayerUID, LayerAddressPartition, LayerUnsharedFiles}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ParseStack("uid,bogus"); err == nil {
		t.Error("unknown token accepted")
	}
	if _, err := ParseStack(""); err == nil {
		t.Error("empty stack accepted")
	}
}

func TestGenerateFromPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown layer kind did not panic")
		}
	}()
	Generate(1, 2, LayerKind(99))
}

func TestRepeatedKindsRejected(t *testing.T) {
	for _, csv := range []string{"uid,uid", "addr,addr", "files,files", "uid,addr,uid"} {
		if kinds, err := ParseStack(csv); err == nil {
			t.Errorf("ParseStack(%q) = %v, want a repeated-kind error", csv, kinds)
		}
	}
	// The instruction-tag tokens name no layer kind.
	if kinds, err := ParseStack("tags,instr"); err == nil || !strings.Contains(err.Error(), "unknown stack layer") {
		t.Errorf("ParseStack(%q) = %v, %v, want an unknown-token error", "tags,instr", kinds, err)
	}
	// Kinds in code go through Generate and UncheckedSpec, which panic
	// on a stack ParseStack would refuse.
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a repeated kind", name)
			}
		}()
		fn()
	}
	mustPanic("Generate", func() { Generate(17, 3, LayerUID, LayerUID) })
	mustPanic("UncheckedSpec", func() { UncheckedSpec(2, AddressPartitionLayer(2), AddressPartitionLayer(2)) })
}

func TestGeneratedSpecsPassSampledCheck(t *testing.T) {
	// Generate validates by construction; the sampled property check is
	// the oracle it must agree with on every stack: every subset of the
	// layer kinds. The seed draws only the UID masks, so other subsets
	// run one seed.
	kinds := []LayerKind{LayerUID, LayerAddressPartition, LayerUnsharedFiles}
	samples := BoundarySamples()
	for n := 2; n <= 5; n++ {
		n := n
		t.Run(fmt.Sprintf("variants-%d", n), func(t *testing.T) {
			t.Parallel()
			for subset := 1; subset < 1<<len(kinds); subset++ {
				var stack []LayerKind
				for i, k := range kinds {
					if subset&(1<<i) != 0 {
						stack = append(stack, k)
					}
				}
				seeds := []int64{1}
				if subset&1 != 0 { // kinds[0] is LayerUID
					seeds = append(seeds, 2, 977)
				}
				for _, seed := range seeds {
					s := Generate(seed, n, stack...)
					if err := CheckSpec(s, samples); err != nil {
						t.Errorf("seed=%d %s: %v", seed, s.StackString(), err)
					}
				}
			}
		})
	}
}

func TestConstructionRulesRejectViolations(t *testing.T) {
	// Each hand-built layer breaks one rule checkConstruction enforces;
	// the sampled property check must catch the same spec, or the rule
	// guards nothing the properties need.
	const a, b = word.Word(UIDMask), word.Word(0x3C5A7E99)
	cases := []struct {
		name  string
		n     int
		layer Layer
	}{
		{"duplicate mask", 3, UIDLayer(Identity{}, XORMask{Mask: a}, XORMask{Mask: a})},
		{"zero mask", 3, UIDLayer(Identity{}, XORMask{Mask: a}, XORMask{Mask: 0})},
		{"identity at i>0", 3, UIDLayer(Identity{}, Identity{}, XORMask{Mask: b})},
		{"non-identity variant 0", 3, UIDLayer(XORMask{Mask: b}, XORMask{Mask: a}, XORMask{Mask: b})},
		{"slot index clash", 3, Layer{Kind: LayerAddressPartition, Funcs: []Func{Slot{0, 2}, Slot{1, 2}, Slot{1, 2}}}},
		{"slot bits too small", 3, Layer{Kind: LayerAddressPartition, Funcs: []Func{Slot{0, 1}, Slot{1, 1}, Slot{2, 1}}}},
	}
	for _, tc := range cases {
		if err := checkShape(tc.n, []Layer{tc.layer}); err != nil {
			t.Fatalf("%s: malformed case: %v", tc.name, err)
		}
		s := UncheckedSpec(tc.n, tc.layer)
		if err := s.checkConstruction(); err == nil {
			t.Errorf("%s: construction rules accepted %s", tc.name, s)
		}
		if err := CheckSpec(s, BoundarySamples()); err == nil {
			t.Errorf("%s: sampled check accepted %s", tc.name, s)
		}
	}
}

func TestGenerateReplayPinned(t *testing.T) {
	// Recorded before Generate validated by construction: the rng draws
	// must not move, or every seeded matrix would change.
	cases := []struct {
		seed int64
		n    int
		want string
	}{
		{1, 2, "spec[n=2; uid: identity|xor(0x7F7B8557); address-partition; unshared-files: /etc/passwd,/etc/group]"},
		{2, 2, "spec[n=2; uid: identity|xor(0x2F7F3BD2); address-partition; unshared-files: /etc/passwd,/etc/group]"},
		{3, 2, "spec[n=2; uid: identity|xor(0x7652DC3F); address-partition; unshared-files: /etc/passwd,/etc/group]"},
		{1, 5, "spec[n=5; uid: identity|xor(0x7F7B8557)|xor(0x1878973E)|xor(0x513526EE)|xor(0x0CAF934E); address-partition; unshared-files: /etc/passwd,/etc/group]"},
		{2, 5, "spec[n=5; uid: identity|xor(0x2F7F3BD2)|xor(0x57BACC8F)|xor(0x568F6E3A)|xor(0x17F19DA2); address-partition; unshared-files: /etc/passwd,/etc/group]"},
		{3, 5, "spec[n=5; uid: identity|xor(0x7652DC3F)|xor(0x5B0C1CFA)|xor(0x3CC3DBAF)|xor(0x692D4AF4); address-partition; unshared-files: /etc/passwd,/etc/group]"},
	}
	for _, tc := range cases {
		got := Generate(tc.seed, tc.n, LayerUID, LayerAddressPartition, LayerUnsharedFiles).String()
		if got != tc.want {
			t.Errorf("Generate(%d, %d, full stack) = %s, want %s", tc.seed, tc.n, got, tc.want)
		}
	}
}
