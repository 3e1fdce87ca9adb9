package attack

// The expanded attack corpus: scripted HTTP attack scenarios for the
// chaos campaign (§3.2 primitives driven end-to-end against running
// groups) and the exhaustive word-level partial-overwrite brute force
// over mask bytes. Every scenario draws its concrete values from a
// caller-seeded rng, so a campaign cell replays byte-identically from
// its seed.

import (
	"fmt"
	"math/rand"

	"nvariant/internal/reexpress"
	"nvariant/internal/word"
)

// Scenario is one scripted HTTP attack: a deterministic payload
// sequence plus the driving contract the campaign runner follows.
type Scenario struct {
	// Name identifies the scenario in campaign matrices.
	Name string
	// ExpectDetect reports whether a correctly deployed UID variation
	// (N ≥ 2 with a uid layer) must alarm on this scenario. Scenarios
	// with ExpectDetect false probe the false-positive side: a healthy
	// group must survive them without an alarm.
	ExpectDetect bool
	// Trigger tells the runner to drive first-use probes (requests for
	// the protected document) after each payload until the group
	// reacts — the corruption only surfaces at the corrupted lane's
	// next UID use.
	Trigger bool
	// InterleaveBenign tells the runner to alternate benign requests
	// with the trigger probes — the cross-lane shape: sibling worker
	// lanes keep serving while one lane carries the corruption.
	InterleaveBenign bool
	// Build generates the scripted payload sequence from the
	// scenario's seeded rng stream.
	Build func(rng *rand.Rand) [][]byte
}

// Corpus returns the campaign's scenario set. The root-forging write
// of §4, replayed and randomized forged writes, the byte-granularity
// partial-overwrite brute force, the cross-lane corruption shape for
// prefork groups, and a malformed-request flood that must stay
// alarm-free.
func Corpus() []Scenario {
	return []Scenario{
		{
			Name:         "forge-root-uid",
			ExpectDetect: true,
			Trigger:      true,
			Build: func(*rand.Rand) [][]byte {
				return [][]byte{ForgeUIDPayload(0)}
			},
		},
		{
			Name:         "forge-random-uid",
			ExpectDetect: true,
			Trigger:      true,
			Build: func(rng *rand.Rand) [][]byte {
				// Any full-word forgery diverges under inverse
				// reexpression: the concrete value is identical in every
				// variant, the masks are not.
				uid := word.Word(rng.Uint32()) &^ word.HighBit
				return [][]byte{ForgeUIDPayload(uid)}
			},
		},
		{
			Name:         "replay-forged-uid",
			ExpectDetect: true,
			Trigger:      true,
			Build: func(rng *rand.Rand) [][]byte {
				// The same captured exploit replayed: a second identical
				// write changes nothing about detectability, and a fleet
				// replacement's fresh masks make the replay land on a
				// representation the attacker never observed.
				p := ForgeUIDPayload(word.Word(rng.Uint32()) &^ word.HighBit)
				return [][]byte{p, p}
			},
		},
		{
			Name:         "brute-mask-bytes",
			ExpectDetect: true,
			Trigger:      true,
			Build: func(rng *rand.Rand) [][]byte {
				// Byte-granularity brute force over the low mask bytes:
				// partial overwrites of 1–3 low-order bytes with drawn
				// values (§3.2's lowest realistic remote granularity).
				// Pairwise byte-distinct masks diverge on every one.
				var ps [][]byte
				for k := 1; k <= 3; k++ {
					for i := 0; i < 2; i++ {
						ps = append(ps, ForgeLowBytesPayload(word.Word(rng.Uint32()), k))
					}
				}
				return ps
			},
		},
		{
			Name:             "cross-lane-corruption",
			ExpectDetect:     true,
			Trigger:          true,
			InterleaveBenign: true,
			Build: func(*rand.Rand) [][]byte {
				// One lane of a prefork group carries the corrupted UID
				// word; benign requests keep landing on healthy sibling
				// lanes until a trigger reaches the corrupted one.
				return [][]byte{ForgeUIDPayload(0)}
			},
		},
		{
			Name:         "malformed-flood",
			ExpectDetect: false,
			Build: func(rng *rand.Rand) [][]byte {
				// A flood of malformed requests: in-buffer garbage, bad
				// methods, bad versions, binary noise. The server must
				// answer 400/405s with no divergence — this scenario
				// measures the false-positive side of the detector.
				ps := make([][]byte, 0, 16)
				ps = append(ps,
					[]byte("GET /index.html\r\n\r\n"),
					[]byte("BREW /index.html HTTP/1.0\r\n\r\n"),
					[]byte("GET index.html HTTP/1.0\r\n\r\n"),
					[]byte("GET /index.html FTP/1.0\r\n\r\n"),
					[]byte("\r\n\r\n"),
				)
				for i := 0; i < 11; i++ {
					n := 1 + rng.Intn(200) // stays inside the parse buffer
					b := make([]byte, n)
					for j := range b {
						b[j] = byte(1 + rng.Intn(255))
					}
					ps = append(ps, append(b, '\n'))
				}
				return ps
			},
		},
	}
}

// ScenarioByName returns the corpus scenario with the given name.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Corpus() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("attack: unknown scenario %q", name)
}

// --- N-wide evaluation and the mask-byte brute force -----------------

// EvaluateN is Evaluate generalized to N variants: the overwrite is
// applied to every variant's representation of victim, and the
// monitor-visible outcome at the next use is reported. Any inversion
// failure or pairwise canonical divergence is detection; all-equal
// changed values are undetected corruption.
func EvaluateN(funcs []reexpress.Func, victim word.Word, ow Overwrite) (Outcome, error) {
	if len(funcs) == 0 {
		return 0, fmt.Errorf("attack: no variants")
	}
	var first word.Word
	changed := false
	for i, f := range funcs {
		rep, err := f.Apply(victim)
		if err != nil {
			return 0, fmt.Errorf("reexpress victim for variant %d: %w", i, err)
		}
		inv, err := f.Invert(ow.Mutate(rep))
		if err != nil {
			return OutcomeDetected, nil
		}
		if i == 0 {
			first = inv
			changed = inv != victim
			continue
		}
		if inv != first {
			return OutcomeDetected, nil
		}
	}
	if !changed {
		return OutcomeHarmless, nil
	}
	return OutcomeCorrupted, nil
}

// ByteSweepReport summarizes an exhaustive byte-granularity overwrite
// brute force: every value in every byte position.
type ByteSweepReport struct {
	// Trials is the number of overwrites evaluated (positions × 256).
	Trials int
	// Detected counts overwrites the monitor alarms on.
	Detected int
	// Corrupted counts undetected successful corruptions (the attack
	// wins; must be 0 for byte-distinct masks).
	Corrupted int
	// Harmless counts overwrites that left every canonical value
	// unchanged.
	Harmless int
}

// ByteSweep brute-forces every single-byte overwrite — all 256 values
// in all word.Size positions — against the N variant representations
// of victim. With pairwise byte-distinct masks (the Generate
// contract), Corrupted must come out 0: no single-byte write can move
// every variant to the same canonical value.
func ByteSweep(funcs []reexpress.Func, victim word.Word) (ByteSweepReport, error) {
	var rep ByteSweepReport
	for pos := 0; pos < word.Size; pos++ {
		for v := 0; v < 256; v++ {
			out, err := EvaluateN(funcs, victim, SingleByte(pos, byte(v)))
			if err != nil {
				return rep, err
			}
			rep.Trials++
			switch out {
			case OutcomeDetected:
				rep.Detected++
			case OutcomeCorrupted:
				rep.Corrupted++
			case OutcomeHarmless:
				rep.Harmless++
			}
		}
	}
	return rep, nil
}
