package reexpress

import (
	"fmt"

	"nvariant/internal/word"
)

// CheckInverse verifies the inverse property (§2.2 property 3) for f
// over the given sample values: for every x in f's domain,
// R⁻¹(R(x)) must equal x. Samples outside the domain are skipped.
func CheckInverse(f Func, samples []word.Word) error {
	for _, x := range samples {
		if !f.Domain(x) {
			continue
		}
		y, err := f.Apply(x)
		if err != nil {
			return fmt.Errorf("inverse property: %s.Apply(%s): %w", f.Name(), x, err)
		}
		back, err := f.Invert(y)
		if err != nil {
			return fmt.Errorf("inverse property: %s.Invert(%s): %w", f.Name(), y, err)
		}
		if back != x {
			return &DivergenceError{
				Value:  x,
				Detail: fmt.Sprintf("%s: R⁻¹(R(%s)) = %s ≠ %s", f.Name(), x, back, x),
			}
		}
	}
	return nil
}

// CheckDisjoint verifies the disjointness property (§2.3) for a pair
// of inverse functions over the given concrete values: for every y,
// R⁻¹₀(y) and R⁻¹₁(y) must not both succeed with equal results. (A
// failed inversion is an alarm state and therefore counts as
// divergence, i.e. detection.)
func CheckDisjoint(f0, f1 Func, samples []word.Word) error {
	for _, y := range samples {
		v0, err0 := f0.Invert(y)
		v1, err1 := f1.Invert(y)
		if err0 == nil && err1 == nil && v0 == v1 {
			return &DivergenceError{
				Value: y,
				Detail: fmt.Sprintf("disjointness violated: %s and %s both invert to %s",
					f0.Name(), f1.Name(), v0),
			}
		}
	}
	return nil
}

// CheckDisjointN verifies the N-wide pairwise disjointness property
// (§2.3 generalized to N variants): for every concrete value y and
// every pair i ≠ j, R⁻¹ᵢ(y) and R⁻¹ⱼ(y) must not both succeed with
// equal results. A failed inversion is an alarm state and therefore
// counts as divergence, i.e. detection.
func CheckDisjointN(funcs []Func, samples []word.Word) error {
	n := len(funcs)
	vals := make([]word.Word, n)
	ok := make([]bool, n)
	for _, y := range samples {
		for i, f := range funcs {
			v, err := f.Invert(y)
			vals[i], ok[i] = v, err == nil
		}
		for i := 0; i < n; i++ {
			if !ok[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if ok[j] && vals[i] == vals[j] {
					return &DivergenceError{
						Value: y,
						Detail: fmt.Sprintf("disjointness violated: %s (variant %d) and %s (variant %d) both invert to %s",
							funcs[i].Name(), i, funcs[j].Name(), j, vals[i]),
					}
				}
			}
		}
	}
	return nil
}

// CheckSpec runs the construction-time property checks of a spec: for
// every diversified layer kind in the stack, the layer's per-variant
// functions must satisfy the inverse property and N-wide pairwise
// disjointness over the given samples.
func CheckSpec(s *Spec, samples []word.Word) error {
	for _, kind := range []LayerKind{LayerUID, LayerAddressPartition} {
		funcs := s.FuncsFor(kind)
		if funcs == nil {
			continue
		}
		for i, f := range funcs {
			if err := CheckInverse(f, samples); err != nil {
				return fmt.Errorf("%s layer, variant %d: %w", kind, i, err)
			}
		}
		if err := CheckDisjointN(funcs, samples); err != nil {
			return fmt.Errorf("%s layer: %w", kind, err)
		}
	}
	return nil
}

// BoundarySamples returns a deterministic set of adversarial sample
// values: all 16-bit values, plus every single-bit word, plus byte
// boundary patterns in every byte position. The set is designed so a
// property that fails anywhere on the word lattice fails here.
func BoundarySamples() []word.Word {
	samples := make([]word.Word, 0, 1<<16+word.Bits+4*6+8)
	for x := 0; x < 1<<16; x++ {
		samples = append(samples, word.Word(x))
	}
	for i := 0; i < word.Bits; i++ {
		samples = append(samples, word.Word(1)<<uint(i))
	}
	patterns := []byte{0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF}
	for pos := 0; pos < word.Size; pos++ {
		for _, p := range patterns {
			samples = append(samples, word.Word(p)<<(8*uint(pos)))
		}
	}
	samples = append(samples,
		0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF,
		0x12345678, 0xDEADBEEF, 0xCAFEBABE,
	)
	return samples
}
