package reexpress

import (
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
	for _, kind := range []LayerKind{LayerUID, LayerAddressPartition, LayerInstructionTags} {
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

func TestComposedStackSatisfiesProperties(t *testing.T) {
	// Stacking two UID layers composes per-variant: the effective
	// function is xor(a)∘xor(b) = xor(a^b), and the composed spec must
	// still satisfy the N-wide properties.
	n := 3
	inner := UIDLayer(Identity{}, XORMask{Mask: 0x7FFFFFFF}, XORMask{Mask: 0x3C5A7E99})
	outer := UIDLayer(Identity{}, XORMask{Mask: 0x00FF00FF}, XORMask{Mask: 0x013579BD})
	s, err := NewSpec(n, inner, outer)
	if err != nil {
		t.Fatalf("NewSpec: %v", err)
	}
	assertSpecProperties(t, s, BoundarySamples())

	funcs := s.FuncsFor(LayerUID)
	u := word.Word(30)
	got, err := funcs[1].Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := u ^ 0x7FFFFFFF ^ 0x00FF00FF; got != want {
		t.Errorf("composed apply = %s, want %s", got, want)
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
	for _, v := range Table1() {
		s, err := FromVariation(v)
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

func TestGenerateStackedUIDLayersCompose(t *testing.T) {
	// "uid,uid" is reachable through ParseStack: the two random layers
	// must compose into a still-valid spec (retried on the ~2⁻³⁰
	// collision), never be silently replaced by a different stack.
	kinds, err := ParseStack("uid,uid")
	if err != nil {
		t.Fatal(err)
	}
	s := Generate(17, 3, kinds...)
	if got := s.StackString(); got != "uid+uid" {
		t.Fatalf("stack = %q, want the requested uid+uid", got)
	}
	assertSpecProperties(t, s, BoundarySamples())
}
