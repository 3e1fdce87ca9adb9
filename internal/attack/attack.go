// Package attack implements the attacker's side of the evaluation: the
// memory-corruption primitives of the paper's threat model (§3.2) and
// the concrete HTTP exploit payloads for the httpd case study (§4).
//
// The attacker is constrained exactly as in Figure 1: they control
// only the external input, which the framework replicates byte-for-
// byte to every variant. All corruption primitives therefore apply the
// *same* concrete mutation to every variant's copy of the target datum.
package attack

import (
	"fmt"

	"nvariant/internal/httpd"
	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

// Style distinguishes how a primitive corrupts memory. The distinction
// matters for the theory: *writes* store attacker-chosen concrete bits
// (overflows, format-string writes — the paper's threat model), while
// *flips* XOR existing bits (hardware faults like the heat-lamp attack
// [3]). XOR-mask reexpression detects divergent writes but commutes
// with flips — R⁻¹(x ⊕ f) = R⁻¹(x) ⊕ f — so flip-style faults are
// outside the protected class of any XOR-based variation. The paper
// notes that no realistic remote attack achieves targeted bit flips;
// the campaign experiment makes the boundary explicit.
type Style int

// Corruption styles.
const (
	// StyleWrite stores attacker-chosen concrete bits.
	StyleWrite Style = iota + 1
	// StyleFlip XORs bits in place (fault-injection model).
	StyleFlip
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleWrite:
		return "write"
	case StyleFlip:
		return "flip"
	default:
		return "unknown"
	}
}

// Overwrite is a memory-corruption primitive: a mutation the attacker
// can apply to the concrete bytes of a word in a victim's memory. The
// same mutation hits every variant because all variants receive the
// same input.
type Overwrite struct {
	// Name describes the primitive (appears in the experiment table).
	Name string
	// Granularity classifies the primitive for reporting.
	Granularity Granularity
	// Style is write (chosen bits) or flip (XOR fault).
	Style Style
	// Mutate applies the corruption to one variant's concrete word.
	Mutate func(word.Word) word.Word
}

// Granularity is the corruption granularity (§3.2 discusses which are
// realistic under a remote-attacker threat model).
type Granularity int

// Granularities.
const (
	// GranWord overwrites the complete 32-bit value (e.g. a full
	// overflow past the buffer).
	GranWord Granularity = iota + 1
	// GranByte overwrites individual bytes — the lowest granularity
	// reported for remote partial-overwrite attacks (§3.2).
	GranByte
	// GranBit flips a single bit — known only for physical threat
	// models (the heat-lamp attack [3]); included for completeness.
	GranBit
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case GranWord:
		return "word"
	case GranByte:
		return "byte"
	case GranBit:
		return "bit"
	default:
		return "unknown"
	}
}

// FullWord overwrites the whole word with v.
func FullWord(v word.Word) Overwrite {
	return Overwrite{
		Name:        fmt.Sprintf("full-word := %s", v),
		Granularity: GranWord,
		Style:       StyleWrite,
		Mutate:      func(word.Word) word.Word { return v },
	}
}

// SingleByte overwrites byte i (0 = low) with b.
func SingleByte(i int, b byte) Overwrite {
	return Overwrite{
		Name:        fmt.Sprintf("byte[%d] := %#02x", i, b),
		Granularity: GranByte,
		Style:       StyleWrite,
		Mutate: func(w word.Word) word.Word {
			out, err := w.WithByte(i, b)
			if err != nil {
				return w
			}
			return out
		},
	}
}

// LowBytes overwrites the k low-order bytes with the low bytes of v —
// the partial-overwrite shape discussed for extended address-space
// partitioning (§2.3).
func LowBytes(k int, v word.Word) Overwrite {
	return Overwrite{
		Name:        fmt.Sprintf("low-%d-bytes := %s", k, v),
		Granularity: GranByte,
		Style:       StyleWrite,
		Mutate: func(w word.Word) word.Word {
			out := w
			for i := 0; i < k && i < word.Size; i++ {
				b, err := v.Byte(i)
				if err != nil {
					return w
				}
				out, err = out.WithByte(i, b)
				if err != nil {
					return w
				}
			}
			return out
		},
	}
}

// BitSet sets bit i in place.
func BitSet(i int) Overwrite {
	return Overwrite{
		Name:        fmt.Sprintf("bit[%d] := 1", i),
		Granularity: GranBit,
		Style:       StyleWrite,
		Mutate: func(w word.Word) word.Word {
			out, err := w.WithBit(i, true)
			if err != nil {
				return w
			}
			return out
		},
	}
}

// BitFlip flips bit i.
func BitFlip(i int) Overwrite {
	return Overwrite{
		Name:        fmt.Sprintf("bit[%d] flipped", i),
		Granularity: GranBit,
		Style:       StyleFlip,
		Mutate: func(w word.Word) word.Word {
			set, err := w.Bit(i)
			if err != nil {
				return w
			}
			out, err := w.WithBit(i, !set)
			if err != nil {
				return w
			}
			return out
		},
	}
}

// HighBitSet is the paper's acknowledged residual attack against the
// 0x7FFFFFFF mask: setting only the sign bit (§3.2).
func HighBitSet() Overwrite {
	o := BitSet(31)
	o.Name = "high-bit := 1 (§3.2 residual)"
	return o
}

// Outcome classifies what an overwrite achieved against a variant
// pair.
type Outcome int

// Outcomes.
const (
	// OutcomeDetected: the monitor would raise an alarm (divergent or
	// invalid canonical values at first use).
	OutcomeDetected Outcome = iota + 1
	// OutcomeCorrupted: both variants decode to the same *changed*
	// canonical value — a successful, undetected corruption.
	OutcomeCorrupted
	// OutcomeHarmless: the canonical value is unchanged; the overwrite
	// had no effect on program semantics.
	OutcomeHarmless
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeDetected:
		return "DETECTED"
	case OutcomeCorrupted:
		return "CORRUPTED (undetected)"
	case OutcomeHarmless:
		return "harmless"
	default:
		return "unknown"
	}
}

// Evaluate applies the overwrite to each variant's representation of
// victim and reports the monitor-visible outcome at the datum's next
// use: an inversion failure or canonical divergence is detection; equal
// changed canonical values are undetected corruption. It is the
// two-variant form of EvaluateN (corpus.go).
func Evaluate(p reexpress.Pair, victim word.Word, ow Overwrite) (Outcome, error) {
	return EvaluateN([]reexpress.Func{p.R0, p.R1}, victim, ow)
}

// StandardOverwrites returns the §3.2 campaign set: the root-forging
// full-word write, every single-byte write, multi-byte partial
// overwrites, a full single-bit-set sweep (including the high-bit
// residual), and — for the threat-model boundary — a sweep of
// flip-style faults that no XOR mask can detect.
func StandardOverwrites() []Overwrite {
	ows := []Overwrite{FullWord(0), FullWord(0x7FFFFFFF), FullWord(0xFFFFFFFF)}
	for i := 0; i < word.Size; i++ {
		ows = append(ows, SingleByte(i, 0x00), SingleByte(i, 0xFF))
	}
	for k := 1; k <= 3; k++ {
		ows = append(ows, LowBytes(k, 0))
	}
	for i := 0; i < word.Bits-1; i++ {
		ows = append(ows, BitSet(i))
	}
	ows = append(ows, HighBitSet())
	for i := 0; i < word.Bits; i++ {
		ows = append(ows, BitFlip(i))
	}
	return ows
}

// --- HTTP exploit payloads for the httpd case study (§4) -------------

// OverflowPayload builds the request that overflows httpd's parse
// buffer and writes tail into the adjacent worker-UID word. The filler
// contains no newline, so the server answers 400 while the corruption
// silently persists for the next request.
func OverflowPayload(tail []byte) []byte {
	payload := make([]byte, 0, httpd.ReqBufSize+len(tail))
	for i := 0; i < httpd.ReqBufSize; i++ {
		payload = append(payload, 'A')
	}
	return append(payload, tail...)
}

// ForgeUIDPayload overwrites the full worker-UID word with uid
// (little-endian), the Chen-et-al-style root-forging attack.
func ForgeUIDPayload(uid word.Word) []byte {
	b := uid.Bytes()
	return OverflowPayload(b[:])
}

// ForgeLowBytesPayload overwrites only the k low-order bytes of the
// worker UID — the byte-granularity partial overwrite of §3.2.
func ForgeLowBytesPayload(uid word.Word, k int) []byte {
	b := uid.Bytes()
	if k > len(b) {
		k = len(b)
	}
	return OverflowPayload(b[:k])
}
