package reexpress

import (
	"math/rand"
	"strings"
	"testing"

	"nvariant/internal/word"
)

// decodeFuzzStack maps a fuzz input to a variation stack of one to
// four layers: the low two bits give the length minus one, and each
// following bit pair picks a layer kind. Codes 0–2 are the three kinds
// and code 3 is an unknown kind; kinds can repeat, so the input reaches
// both the unknown-kind and the repeated-kind refusal.
func decodeFuzzStack(code uint16) []LayerKind {
	stack := make([]LayerKind, 1+int(code&3))
	for i := range stack {
		stack[i] = LayerUID + LayerKind(code>>(2+2*i)&3)
	}
	return stack
}

// FuzzGenerate checks the Generate contract for arbitrary seeds, group
// sizes and stacks. CheckStack must refuse every stack that holds an
// unknown kind or repeats a kind (Generate would panic on it), and
// accept every other. On an accepted stack the spec carries the
// requested stack, passes the structural checks Generate validates it
// by, and its UID layer is identity plus XOR masks that are pairwise
// byte-distinct in every position (so any single-byte overwrite
// diverges between every pair of variants); the spec holds the §2.2
// inverse and §2.3 N-wide disjointness properties over boundary values
// plus a seed-derived random sample. A few words suffice per input: two equal XOR masks
// collide on every value, and a misplaced slot faults on most of its
// domain, while the full BoundarySamples corpus would cut the fuzzer's
// rate a hundredfold (TestGeneratedSpecsPassSampledCheck runs it).
// Seed corpus under testdata/fuzz, where the repeated-* entries pin
// the repeated-kind refusal (the uid+unknown seed below pins the
// unknown-kind one); CI runs this briefly in the chaos-smoke job.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), byte(0), uint16(0x11))     // uid+addr
	f.Add(int64(42), byte(3), uint16(0x11))    // uid+addr
	f.Add(int64(-7), byte(1), uint16(0x1))     // uid+uid: refused
	f.Add(int64(1<<62), byte(2), uint16(0x12)) // uid+addr+uid: refused
	f.Add(int64(3), byte(0), uint16(0x31))     // uid+unknown: refused
	f.Fuzz(func(t *testing.T, seed int64, nRaw byte, stackCode uint16) {
		n := 2 + int(nRaw%4) // group sizes 2..5
		stack := decodeFuzzStack(stackCode)
		unknown, repeated := false, false
		names := make([]string, len(stack))
		for i, k := range stack {
			names[i] = k.String()
			switch k {
			case LayerUID, LayerAddressPartition, LayerUnsharedFiles:
			default:
				unknown = true
			}
			for _, prev := range stack[:i] {
				repeated = repeated || prev == k
			}
		}
		err := CheckStack(stack)
		if unknown || repeated {
			if err == nil {
				t.Fatalf("CheckStack accepted %v (unknown kind %v, repeated kind %v)", stack, unknown, repeated)
			}
			return
		}
		if err != nil {
			t.Fatalf("CheckStack(%v): %v", stack, err)
		}
		spec := Generate(seed, n, stack...)
		if got, want := spec.StackString(), strings.Join(names, "+"); got != want {
			t.Fatalf("stack = %s, want %s", got, want)
		}
		if err := spec.checkConstruction(); err != nil {
			t.Fatalf("generated spec fails its construction rules: %v", err)
		}
		if spec.HasLayer(LayerUID) {
			funcs := spec.UIDFuncs()
			if len(funcs) != n {
				t.Fatalf("got %d UID funcs for n=%d", len(funcs), n)
			}
			assertGeneratedMasks(t, funcs)
		}

		samples := []word.Word{0, 1, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 64; k++ {
			samples = append(samples, word.Word(rng.Uint32()))
		}
		if err := CheckSpec(spec, samples); err != nil {
			t.Fatalf("generated spec %s violates properties: %v", spec, err)
		}
	})
}

// assertGeneratedMasks checks one generated UID layer: identity at
// variant 0, then XOR masks with the sign bit clear that are pairwise
// byte-distinct in every position.
func assertGeneratedMasks(t *testing.T, funcs []Func) {
	t.Helper()
	masks := make([]word.Word, len(funcs))
	for i, fn := range funcs {
		switch m := fn.(type) {
		case Identity:
			if i != 0 {
				t.Fatalf("variant %d drew identity", i)
			}
		case XORMask:
			if i == 0 {
				t.Fatal("variant 0 is not identity")
			}
			masks[i] = m.Mask
			if m.Mask&word.HighBit != 0 {
				t.Fatalf("mask %s has the sign bit set", m.Mask)
			}
		default:
			t.Fatalf("unexpected func type %T", fn)
		}
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if !byteDistinct(masks[i], []word.Word{masks[j]}) {
				t.Fatalf("masks %s and %s share a byte position", masks[i], masks[j])
			}
		}
	}
}
