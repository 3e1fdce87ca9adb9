package reexpress

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"

	"nvariant/internal/word"
)

// Spec — the DiversitySpec of the public API — is the single way to
// describe a diversified deployment: N ≥ 2 variants, each carrying the
// same ordered stack of typed variation layers. The paper states its
// security argument for arbitrary N (§2) and discusses stacking
// variations (§5); a Spec makes both first-class. Construct with
// NewSpec (explicit, validated), FromVariation (a Table 1 row), or
// Generate (randomized, the fleet's per-replacement source).
//
// A validated Spec guarantees, per diversified layer kind, the two
// properties the detection argument needs, generalized N-wide:
//
//   - inverse (§2.2):      ∀i, ∀x in domain: R⁻¹ᵢ(Rᵢ(x)) ≡ x
//   - disjointness (§2.3): ∀x, ∀i≠j: R⁻¹ᵢ(x) ≠ R⁻¹ⱼ(x), or at least
//     one of the inversions fails (an alarm state)
type Spec struct {
	n      int
	layers []Layer
}

// LayerKind classifies one variation layer of a Spec.
type LayerKind int

// Layer kinds: the variation techniques a spec can stack.
const (
	// LayerUID diversifies UID-typed data (Table 1 row 4, the paper's
	// contribution).
	LayerUID LayerKind = iota + 1
	// LayerAddressPartition places each variant's address space in a
	// disjoint slot (Table 1 rows 1–2, generalized from two halves to
	// 2^k slots for N variants).
	LayerAddressPartition
	// LayerUnsharedFiles gives each variant its own diversified copy of
	// the listed files (§3.4).
	LayerUnsharedFiles
)

// String names the layer kind.
func (k LayerKind) String() string {
	switch k {
	case LayerUID:
		return "uid"
	case LayerAddressPartition:
		return "address-partition"
	case LayerUnsharedFiles:
		return "unshared-files"
	default:
		return "unknown"
	}
}

// ParseStack parses a comma-separated variation-stack description into
// layer kinds. Accepted tokens (with aliases): "uid", "addr"
// ("address"), "files" ("unshared"). Each kind may appear once
// (CheckStack).
func ParseStack(csv string) ([]LayerKind, error) {
	var out []LayerKind
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		if tok == "" {
			continue
		}
		switch tok {
		case "uid":
			out = append(out, LayerUID)
		case "addr", "address", "address-partition":
			out = append(out, LayerAddressPartition)
		case "files", "unshared", "unshared-files":
			out = append(out, LayerUnsharedFiles)
		default:
			return nil, fmt.Errorf("reexpress: unknown stack layer %q (want uid, addr, or files)", tok)
		}
	}
	if err := CheckStack(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckStack validates a variation stack: at least one layer, every
// kind known, and no kind twice. Every Spec holds at most one layer of
// each kind. A repeated kind adds nothing a single layer lacks: slot
// and file layers draw nothing, and two UID layers compose into masks
// that can share a byte position, so a single-byte overwrite there
// would not diverge between every pair of variants.
func CheckStack(stack []LayerKind) error {
	if len(stack) == 0 {
		return fmt.Errorf("reexpress: empty variation stack")
	}
	var seen [LayerUnsharedFiles + 1]bool
	for i, k := range stack {
		if k < LayerUID || k > LayerUnsharedFiles {
			return fmt.Errorf("reexpress: layer %d: unknown kind %d", i, k)
		}
		if seen[k] {
			return fmt.Errorf("reexpress: layer %d: a second %s layer (a stack holds at most one layer of each kind)", i, k)
		}
		seen[k] = true
	}
	return nil
}

// kindsOf lists the kinds of a layer stack, for CheckStack.
func kindsOf(layers []Layer) []LayerKind {
	kinds := make([]LayerKind, len(layers))
	for i, l := range layers {
		kinds[i] = l.Kind
	}
	return kinds
}

// Layer is one variation in a spec's stack. Reexpression layers (UID,
// address partition) carry one function per variant; the
// unshared-files layer carries the diversified paths.
type Layer struct {
	// Kind classifies the variation.
	Kind LayerKind
	// Funcs holds R₀..R_{N-1} for reexpression layers (len == spec N).
	Funcs []Func
	// Paths lists the diversified files for LayerUnsharedFiles.
	Paths []string
}

// UIDLayer builds a UID variation layer from per-variant functions.
func UIDLayer(funcs ...Func) Layer {
	return Layer{Kind: LayerUID, Funcs: append([]Func(nil), funcs...)}
}

// AddressPartitionLayer builds an N-way address partitioning layer:
// variant i's addresses live in slot i of the 2^SlotBits(n)-way split
// of the address space.
func AddressPartitionLayer(n int) Layer {
	b := SlotBits(n)
	funcs := make([]Func, n)
	for i := range funcs {
		funcs[i] = Slot{Index: i, Bits: b}
	}
	return Layer{Kind: LayerAddressPartition, Funcs: funcs}
}

// UnsharedFilesLayer builds an unshared-files layer over the given
// paths (§3.4).
func UnsharedFilesLayer(paths ...string) Layer {
	return Layer{Kind: LayerUnsharedFiles, Paths: append([]string(nil), paths...)}
}

// DefaultUnsharedPaths are the diversified system databases of the
// paper's §4 deployment.
var DefaultUnsharedPaths = []string{"/etc/passwd", "/etc/group"}

// SlotBits returns the number of index bits needed to give n variants
// disjoint slots of the word space (minimum 1, i.e. the paper's
// two-halves split). It delegates to word.SlotBits, the shared source
// of truth vmem's address partitions are built from.
func SlotBits(n int) int { return word.SlotBits(n) }

// Slot reexpresses a value by placing a variant index in its top Bits
// bits — the N-wide generalization of address-space partitioning
// (slot = address partition). Instruction tagging's one-bit tag is
// TagBit, which no spec layer uses. Canonical values must fit in the
// remaining low bits; a concrete value whose top bits name a different
// slot is invalid for this variant and inverting it faults, which is
// the alarm state the monitor observes. At most one variant can invert
// any given value, so pairwise disjointness holds by construction.
type Slot struct {
	// Index is this variant's slot number, in [0, 2^Bits).
	Index int
	// Bits is the slot-index width in bits, in [1, word.Bits).
	Bits int
}

var _ Func = Slot{}

// Name implements Func.
func (f Slot) Name() string { return fmt.Sprintf("slot(%d/%d)", f.Index, 1<<f.Bits) }

// shift returns the bit position of the slot index.
func (f Slot) shift() uint { return uint(word.Bits - f.Bits) }

// Apply implements Func: R(x) = index || x.
func (f Slot) Apply(x word.Word) (word.Word, error) {
	if !f.Domain(x) {
		return 0, fmt.Errorf("apply %s to %s: %w", f.Name(), x, ErrOutOfDomain)
	}
	return x | word.Word(f.Index)<<f.shift(), nil
}

// Invert implements Func: checks the slot index, faults on mismatch,
// and strips it.
func (f Slot) Invert(y word.Word) (word.Word, error) {
	if got := int(y >> f.shift()); got != f.Index {
		return 0, slotFaultFor(got)
	}
	return y &^ (word.Max << f.shift()), nil
}

// slotFaults precomputes one static error per observed slot index.
// The fault path must stay allocation-free — sampled spec validation
// (NewSpec, CheckSpec) inverts tens of thousands of out-of-slot
// samples, where a per-call fmt.Errorf was the profiled dominant
// allocator — but the PR 4 shared sentinel also erased *which* slot
// the offending value claimed, the diagnostic the monitor's alarm
// detail and the property-check failures report. A static table keeps
// both: every entry is built once and wraps ErrOutOfDomain.
var slotFaults = func() [64]error {
	var t [64]error
	for i := range t {
		t[i] = fmt.Errorf("invert slot: value claims slot %d, not this variant's: %w", i, ErrOutOfDomain)
	}
	return t
}()

// errSlotFault is the fallback for slot indices beyond the static
// table (wider Bits than any deployed partition uses).
var errSlotFault = fmt.Errorf("invert slot: value outside this variant's slot: %w", ErrOutOfDomain)

// slotFaultFor returns the static fault error naming the observed
// slot.
func slotFaultFor(got int) error {
	if got >= 0 && got < len(slotFaults) {
		return slotFaults[got]
	}
	return errSlotFault
}

// Domain implements Func: canonical values occupy the low bits.
func (f Slot) Domain(x word.Word) bool { return x>>f.shift() == 0 }

// UncheckedSpec builds a Spec without running the §2.2/§2.3 property
// checks. It is the constructor behind FullStack, the configuration 3
// baseline stacks and the ablation experiments, which deliberately
// deploy undiversified or property-violating stacks; new code should
// use NewSpec. The layer kinds come from code, so a stack CheckStack
// rejects (such as a repeated kind) panics.
func UncheckedSpec(n int, layers ...Layer) *Spec {
	if err := CheckStack(kindsOf(layers)); err != nil {
		panic("reexpress: UncheckedSpec: " + err.Error())
	}
	copied := make([]Layer, len(layers))
	for i, l := range layers {
		copied[i] = Layer{
			Kind:  l.Kind,
			Funcs: append([]Func(nil), l.Funcs...),
			Paths: append([]string(nil), l.Paths...),
		}
	}
	return &Spec{n: n, layers: copied}
}

// NewSpec builds and validates a Spec for n variants: the shape is
// checked (n ≥ 2, CheckStack, every reexpression layer carries exactly
// n functions), then every diversified layer kind is verified against
// the inverse and N-wide pairwise-disjointness properties over the
// adversarial BoundarySamples corpus.
func NewSpec(n int, layers ...Layer) (*Spec, error) {
	if err := checkShape(n, layers); err != nil {
		return nil, err
	}
	s := UncheckedSpec(n, layers...)
	if err := CheckSpec(s, boundarySamples()); err != nil {
		return nil, err
	}
	return s, nil
}

// checkShape validates the structural invariants of a spec's layers.
func checkShape(n int, layers []Layer) error {
	if n < 2 {
		return fmt.Errorf("reexpress: spec needs at least 2 variants, got %d", n)
	}
	if err := CheckStack(kindsOf(layers)); err != nil {
		return err
	}
	for li, l := range layers {
		switch l.Kind {
		case LayerUID, LayerAddressPartition:
			if len(l.Funcs) != n {
				return fmt.Errorf("reexpress: layer %d (%s): %d funcs for %d variants", li, l.Kind, len(l.Funcs), n)
			}
			for i, f := range l.Funcs {
				if f == nil {
					return fmt.Errorf("reexpress: layer %d (%s): nil func for variant %d", li, l.Kind, i)
				}
			}
		case LayerUnsharedFiles:
			if len(l.Paths) == 0 {
				return fmt.Errorf("reexpress: layer %d (unshared-files): no paths", li)
			}
		}
	}
	return nil
}

// N returns the variant count.
func (s *Spec) N() int { return s.n }

// layer returns the stack's layer of kind k (a spec holds at most
// one), or nil when the kind is absent.
func (s *Spec) layer(k LayerKind) *Layer {
	for i := range s.layers {
		if s.layers[i].Kind == k {
			return &s.layers[i]
		}
	}
	return nil
}

// HasLayer reports whether the stack contains a layer of the given
// kind.
func (s *Spec) HasLayer(k LayerKind) bool { return s.layer(k) != nil }

// FuncsFor returns the per-variant functions of the given layer kind,
// nil when the kind is absent or carries no functions.
func (s *Spec) FuncsFor(k LayerKind) []Func {
	if l := s.layer(k); l != nil {
		return append([]Func(nil), l.Funcs...)
	}
	return nil
}

// UIDFuncs returns the per-variant UID functions, defaulting to
// identity for every variant when the stack has no UID layer.
func (s *Spec) UIDFuncs() []Func {
	if fs := s.FuncsFor(LayerUID); fs != nil {
		return fs
	}
	out := make([]Func, s.n)
	for i := range out {
		out[i] = Identity{}
	}
	return out
}

// UnsharedPaths returns the unshared-files layer's paths, nil when the
// stack has none.
func (s *Spec) UnsharedPaths() []string {
	if l := s.layer(LayerUnsharedFiles); l != nil {
		return append([]string(nil), l.Paths...)
	}
	return nil
}

// VariantName names variant i's UID function — what fleet
// stats and audit logs record about a deployment.
func (s *Spec) VariantName(i int) string {
	fs := s.UIDFuncs()
	if i < 0 || i >= len(fs) {
		return "(none)"
	}
	return fs[i].Name()
}

// StackString renders the stack kinds compactly ("uid+address-
// partition+unshared-files").
func (s *Spec) StackString() string {
	names := make([]string, len(s.layers))
	for i, l := range s.layers {
		names[i] = l.Kind.String()
	}
	return strings.Join(names, "+")
}

// String renders the spec for logs and reports.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec[n=%d", s.n)
	for _, l := range s.layers {
		fmt.Fprintf(&b, "; %s", l.Kind)
		switch l.Kind {
		case LayerUnsharedFiles:
			fmt.Fprintf(&b, ": %s", strings.Join(l.Paths, ","))
		case LayerUID:
			names := make([]string, len(l.Funcs))
			for i, f := range l.Funcs {
				names[i] = f.Name()
			}
			fmt.Fprintf(&b, ": %s", strings.Join(names, "|"))
		}
	}
	b.WriteString("]")
	return b.String()
}

// FromVariation builds a validated two-variant Spec from a Table 1
// row. Instruction tagging (row 3) has no layer kind: no group runs
// instruction words, so its row builds no spec.
func FromVariation(v Variation) (*Spec, error) {
	var kind LayerKind
	switch v.Target {
	case TargetUID:
		kind = LayerUID
	case TargetAddress:
		kind = LayerAddressPartition
	case TargetInstruction:
		return nil, fmt.Errorf("reexpress: variation %q has no spec layer (no group runs instruction words)", v.Name)
	default:
		return nil, fmt.Errorf("reexpress: variation %q has unknown target %v", v.Name, v.Target)
	}
	return NewSpec(2, Layer{Kind: kind, Funcs: v.Pair.Funcs()})
}

// FullStack builds the paper's full §4 deployment stack over the given
// per-variant UID functions: the UID layer plus N-way address
// partitioning and the unshared passwd/group files. The spec is
// deliberately unchecked — ablation call sites pass undiversified or
// property-violating pairs on purpose.
func FullStack(uidFuncs []Func) *Spec {
	n := len(uidFuncs)
	return UncheckedSpec(n,
		UIDLayer(uidFuncs...),
		AddressPartitionLayer(n),
		UnsharedFilesLayer(DefaultUnsharedPaths...),
	)
}

// MinMaskBits is the smallest acceptable popcount for a generated UID
// mask. The paper's mask flips 31 bits; demanding at least half the
// word keeps the expected detection probability for random partial
// overwrites high.
const MinMaskBits = 16

// Generate draws a randomized, validated Spec for n variants from the
// given seed — the fleet's per-replacement source of fresh
// representations (it subsumes the old two-variant SelectPair). The
// stack defaults to a single UID layer; pass explicit kinds to stack
// further variations (address partitioning, unshared files).
func Generate(seed int64, n int, stack ...LayerKind) *Spec {
	return GenerateFrom(rand.New(rand.NewSource(seed)), n, stack...)
}

// GenerateFrom is Generate over a caller-owned random source, letting
// a fleet draw a stream of independent specs from one seeded rng.
//
// Generated UID masks keep the paper's sign-bit exclusion (so the
// kernel's negative-UID special cases stay outside the diversified
// range) and are pairwise byte-distinct in every byte position — a
// single-byte overwrite therefore diverges between *every* pair of
// variants, not just against variant 0 — with at least MinMaskBits
// bits flipped each. The result is validated by construction
// (checkConstruction): each drawn layer is checked against the
// structural rules that imply the §2.2/§2.3 properties, in O(N²) per
// layer. The stack's kinds come from code (user input goes through
// ParseStack), so a stack CheckStack rejects — an unknown or repeated
// kind — is a bug at the call site and panics rather than deploying a
// spec the caller did not ask for.
func GenerateFrom(rng *rand.Rand, n int, stack ...LayerKind) *Spec {
	if n < 2 {
		n = 2
	}
	if len(stack) == 0 {
		stack = []LayerKind{LayerUID}
	}
	if err := CheckStack(stack); err != nil {
		panic("reexpress: GenerateFrom: " + err.Error())
	}
	layers := make([]Layer, len(stack))
	for i, k := range stack {
		switch k {
		case LayerUID:
			layers[i] = Layer{Kind: LayerUID, Funcs: generateUIDFuncs(rng, n)}
		case LayerAddressPartition:
			layers[i] = AddressPartitionLayer(n)
		case LayerUnsharedFiles:
			layers[i] = UnsharedFilesLayer(DefaultUnsharedPaths...)
		}
	}
	// The layers are freshly built and owned by nobody else, so the
	// spec takes them without UncheckedSpec's defensive copy.
	s := &Spec{n: n, layers: layers}
	// The construction rules cannot fail on these layers; the check
	// pins them, so a change to the drawing code that breaks §2.3
	// disjointness fails loudly instead of deploying.
	if err := s.checkConstruction(); err != nil {
		panic("reexpress: GenerateFrom: " + err.Error())
	}
	return s
}

// checkConstruction validates a spec against the structural rules
// Generate builds by. Each rule implies the §2.2 inverse and §2.3
// N-wide disjointness properties of its layer, so no sampling is
// needed:
//
//   - UID: variant 0 is Identity and variants 1..N−1 are XORMasks with
//     nonzero, pairwise distinct masks. XOR is an involution (inverse),
//     and y^a = y^b only when a = b, identity being mask 0
//     (disjointness).
//   - Address partition: variant i is Slot{Index: i, Bits:
//     SlotBits(N)}, so 2^Bits ≥ N and every index fits. A slot
//     round-trips its domain, and at most one variant's slot can
//     invert any value (disjointness).
//
// A spec this rejects may still satisfy the properties (an explicit
// NewSpec stack is free to use other functions); it is not what
// Generate draws.
func (s *Spec) checkConstruction() error {
	for li, l := range s.layers {
		switch l.Kind {
		case LayerUID:
			if err := checkUIDConstruction(l.Funcs); err != nil {
				return fmt.Errorf("reexpress: layer %d (%s): %w", li, l.Kind, err)
			}
		case LayerAddressPartition:
			b := SlotBits(s.n)
			for i, f := range l.Funcs {
				if want := (Slot{Index: i, Bits: b}); f != want {
					return fmt.Errorf("reexpress: layer %d (%s): variant %d is %s, want %s", li, l.Kind, i, f.Name(), want.Name())
				}
			}
		}
	}
	return nil
}

// checkUIDConstruction applies checkConstruction's UID rule to one
// layer's functions.
func checkUIDConstruction(funcs []Func) error {
	for i, f := range funcs {
		if i == 0 {
			if _, ok := f.(Identity); !ok {
				return fmt.Errorf("variant 0 is %s, want identity", f.Name())
			}
			continue
		}
		m, ok := f.(XORMask)
		if !ok {
			return fmt.Errorf("variant %d is %s, want a nonzero XOR mask", i, f.Name())
		}
		if m.Mask == 0 {
			return fmt.Errorf("variant %d has the zero mask, which collides with variant 0's identity", i)
		}
		for j := 1; j < i; j++ {
			if funcs[j].(XORMask).Mask == m.Mask {
				return fmt.Errorf("variants %d and %d share mask %s", j, i, m.Mask)
			}
		}
	}
	return nil
}

// generateUIDFuncs draws identity plus n-1 XOR masks satisfying the
// Generate contract.
func generateUIDFuncs(rng *rand.Rand, n int) []Func {
	funcs := make([]Func, n)
	funcs[0] = Identity{}
	masks := make([]word.Word, 1, n) // identity occupies mask 0
	for i := 1; i < n; i++ {
		m := drawMask(rng, masks)
		masks = append(masks, m)
		funcs[i] = XORMask{Mask: m}
	}
	return funcs
}

// drawMask draws one fresh mask: sign bit clear, every byte nonzero,
// popcount ≥ MinMaskBits, and byte-distinct in every position from all
// previously drawn masks (including 0, the identity).
func drawMask(rng *rand.Rand, prev []word.Word) word.Word {
	for attempt := 0; attempt < 1024; attempt++ {
		var b [word.Size]byte
		for i := range b {
			b[i] = byte(1 + rng.Intn(255))
		}
		b[word.Size-1] &= 0x7F
		if b[word.Size-1] == 0 {
			continue
		}
		m := word.FromBytes(b)
		if bits.OnesCount32(uint32(m)) < MinMaskBits {
			continue
		}
		if !byteDistinct(m, prev) {
			continue
		}
		return m
	}
	// Essentially unreachable (the rejection probability per draw is
	// tiny); scan deterministic candidates so the function always
	// terminates with a usable, pairwise-distinct mask.
	for k := word.Word(1); ; k++ {
		m := (UIDMask - k*0x01010101) & ^word.HighBit
		if bits.OnesCount32(uint32(m)) < MinMaskBits {
			continue
		}
		distinct := true
		for _, p := range prev {
			if m == p {
				distinct = false
				break
			}
		}
		if distinct {
			return m
		}
	}
}

// byteDistinct reports whether m differs from every mask in prev at
// every byte position.
func byteDistinct(m word.Word, prev []word.Word) bool {
	mb := m.Bytes()
	for _, p := range prev {
		pb := p.Bytes()
		for i := 0; i < word.Size; i++ {
			if mb[i] == pb[i] {
				return false
			}
		}
	}
	return true
}

// boundaryOnce caches the ~65k-word adversarial sample corpus: it is
// read-only and rebuilding it per sampled spec validation would be
// pure allocation churn.
var boundaryOnce = sync.OnceValue(BoundarySamples)

// boundarySamples returns the shared, cached property-check corpus.
func boundarySamples() []word.Word { return boundaryOnce() }
