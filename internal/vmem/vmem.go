// Package vmem simulates 32-bit process address spaces.
//
// Address-space partitioning (Table 1 of the paper) constructs
// variants whose memory regions are disjoint: variant 0's addresses
// have a 0 partition (high) bit and variant 1's have a 1 partition
// bit. An attack that injects an absolute address can be valid in at
// most one variant; dereferencing it in the other produces a
// segmentation fault that the monitor observes as divergence
// (Figure 1). Go programs cannot diversify their own runtime address
// space (repro note: "low-level memory diversity clashes with
// runtime"), so variants in this reproduction run on these simulated
// spaces instead, preserving exactly the fault semantics the detection
// argument needs.
package vmem

import (
	"fmt"
	"sort"

	"nvariant/internal/word"
)

// Addr is an address in a simulated 32-bit address space.
type Addr = word.Word

// PageSize is the granularity of backing storage.
const PageSize = 4096

// Partition constrains which slice of the address space a Space may
// map, mirroring the address-space partitioning reexpression. The
// paper's two-variant construction (variant 0 in the low half, variant
// 1 in the high half) generalizes to 2^bits equal slots with the
// variant index carried in the top bits of every address — an
// N-variant deployment gives variant i slot i via PartitionSlot.
type Partition struct {
	// index is the slot number, in [0, 2^bits).
	index int
	// bits is the slot-index width; 0 means the full unpartitioned
	// space.
	bits int
}

// Partition values of the two-variant construction.
var (
	// PartitionNone allows the full 32-bit space (used when address
	// diversity is disabled).
	PartitionNone = Partition{}
	// PartitionLow restricts the space to addresses with a 0 high bit.
	PartitionLow = Partition{index: 0, bits: 1}
	// PartitionHigh restricts the space to addresses with a 1 high bit.
	PartitionHigh = Partition{index: 1, bits: 1}
)

// PartitionBits returns the slot-index width needed for n disjoint
// slots (minimum 1, the paper's two-halves split). It delegates to
// word.SlotBits, the shared source of truth reexpress's Slot functions
// are built from — the monitor's canonicalization width therefore
// cannot drift from the slot layout a spec was validated against.
func PartitionBits(n int) int { return word.SlotBits(n) }

// PartitionSlot returns slot index of the 2^PartitionBits(count)-way
// partitioning of the address space — variant index's confinement in
// a count-variant deployment.
func PartitionSlot(index, count int) (Partition, error) {
	bits := PartitionBits(count)
	if bits >= word.Bits {
		return Partition{}, fmt.Errorf("vmem: %d-way partitioning needs %d index bits", count, bits)
	}
	if index < 0 || index >= 1<<bits {
		return Partition{}, fmt.Errorf("vmem: slot %d out of range for %d-way partitioning", index, 1<<bits)
	}
	return Partition{index: index, bits: bits}, nil
}

// Bits returns the slot-index width (0 for the unpartitioned space).
func (p Partition) Bits() int { return p.bits }

// Index returns the slot number.
func (p Partition) Index() int { return p.index }

// String names the partition.
func (p Partition) String() string {
	switch p {
	case PartitionNone:
		return "none"
	case PartitionLow:
		return "low"
	case PartitionHigh:
		return "high"
	}
	return fmt.Sprintf("slot %d/%d", p.index, 1<<p.bits)
}

// Contains reports whether addr falls inside the partition.
func (p Partition) Contains(addr Addr) bool {
	if p.bits == 0 {
		return true
	}
	return int(addr>>(word.Bits-p.bits)) == p.index
}

// Base returns the lowest address of the partition.
func (p Partition) Base() Addr {
	if p.bits == 0 {
		return 0
	}
	return Addr(p.index) << (word.Bits - p.bits)
}

// SegfaultError reports an access to an unmapped (or out-of-partition)
// address — the alarm state of the address-partitioning variation.
type SegfaultError struct {
	// Addr is the faulting address.
	Addr Addr
	// Op is the attempted operation ("read", "write", "map").
	Op string
}

// Error implements the error interface.
func (e *SegfaultError) Error() string {
	return fmt.Sprintf("vmem: segmentation fault: %s at %s", e.Op, e.Addr)
}

// segment is a mapped region [base, base+size).
type segment struct {
	base Addr
	size uint32
}

func (s segment) end() uint64 { return uint64(s.base) + uint64(s.size) }

// Space is a sparse, segment-mapped simulated address space. The zero
// value is not usable; construct with New.
type Space struct {
	partition Partition
	segments  []segment // sorted by base, non-overlapping
	pages     map[Addr][]byte
	brk       Addr // next allocation address for Alloc
}

// New returns an empty address space confined to the given partition.
// Allocations made with Alloc start at the partition base plus a
// small guard offset so address 0 (NULL) is never mapped.
func New(partition Partition) *Space {
	return &Space{
		partition: partition,
		pages:     make(map[Addr][]byte),
		brk:       partition.Base() + PageSize,
	}
}

// Partition returns the space's partition.
func (s *Space) Partition() Partition { return s.partition }

// Canonical maps an address into the canonical (variant-0) address
// space by clearing the partition bit. This is the canonicalization
// function the monitor uses to compare address arguments across
// variants (§2, normal equivalence) in the two-variant construction.
func Canonical(addr Addr) Addr { return addr &^ word.HighBit }

// CanonicalIn is Canonical generalized to a 2^bits-way partitioned
// deployment: it clears the top bits index bits, mapping any variant's
// address back to the variant-0 (slot 0) space.
func CanonicalIn(addr Addr, bits int) Addr {
	if bits <= 0 {
		return addr
	}
	return addr & (Addr(1)<<(word.Bits-bits) - 1)
}

// Map makes [base, base+size) accessible. It fails if the region
// leaves the partition, wraps the address space, has zero size, or
// overlaps an existing segment.
func (s *Space) Map(base Addr, size uint32) error {
	if size == 0 {
		return fmt.Errorf("vmem: map %s: zero size", base)
	}
	if uint64(base)+uint64(size) > 1<<32 {
		return fmt.Errorf("vmem: map %s+%d: wraps address space", base, size)
	}
	last := base + Addr(size-1)
	if !s.partition.Contains(base) || !s.partition.Contains(last) {
		return &SegfaultError{Addr: base, Op: "map"}
	}
	for _, seg := range s.segments {
		if uint64(base) < seg.end() && uint64(seg.base) < uint64(base)+uint64(size) {
			return fmt.Errorf("vmem: map %s+%d: overlaps segment %s+%d", base, size, seg.base, seg.size)
		}
	}
	s.segments = append(s.segments, segment{base: base, size: size})
	sort.Slice(s.segments, func(i, j int) bool { return s.segments[i].base < s.segments[j].base })
	return nil
}

// Alloc maps a fresh region of the given size at the next free
// address and returns its base. Consecutive Alloc calls return
// adjacent regions — which is what makes buffer overflows into a
// neighbouring allocation possible, as in the planted httpd
// vulnerability.
func (s *Space) Alloc(size uint32) (Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("vmem: alloc: zero size")
	}
	base := s.brk
	if err := s.Map(base, size); err != nil {
		return 0, fmt.Errorf("alloc %d bytes: %w", size, err)
	}
	s.brk = base + Addr(size)
	return base, nil
}

// AllocAligned is Alloc with the base rounded up to the given power of
// two.
func (s *Space) AllocAligned(size, align uint32) (Addr, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("vmem: alloc: alignment %d is not a power of two", align)
	}
	mask := Addr(align - 1)
	s.brk = (s.brk + mask) &^ mask
	return s.Alloc(size)
}

// mapped reports whether the full range [addr, addr+n) is mapped.
func (s *Space) mapped(addr Addr, n uint32) bool {
	if n == 0 {
		return true
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return false
	}
	// Because segments are sorted and non-overlapping, a range is
	// mapped iff it is covered by consecutive adjacent segments.
	need := uint64(addr)
	stop := uint64(addr) + uint64(n)
	for _, seg := range s.segments {
		if seg.end() <= need {
			continue
		}
		if uint64(seg.base) > need {
			return false
		}
		need = seg.end()
		if need >= stop {
			return true
		}
	}
	return false
}

// page returns the backing page for addr, creating it on demand.
func (s *Space) page(addr Addr) []byte {
	base := addr &^ Addr(PageSize-1)
	p, ok := s.pages[base]
	if !ok {
		p = make([]byte, PageSize)
		s.pages[base] = p
	}
	return p
}

// LoadByte loads one byte.
func (s *Space) LoadByte(addr Addr) (byte, error) {
	if !s.mapped(addr, 1) {
		return 0, &SegfaultError{Addr: addr, Op: "read"}
	}
	return s.page(addr)[addr%PageSize], nil
}

// ReadBytes loads n bytes starting at addr.
func (s *Space) ReadBytes(addr Addr, n uint32) ([]byte, error) {
	if !s.mapped(addr, n) {
		return nil, &SegfaultError{Addr: addr, Op: "read"}
	}
	out := make([]byte, n)
	if err := s.readInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto loads len(buf) bytes starting at addr into buf — the
// allocation-free form of ReadBytes for callers that reuse a scratch
// buffer (the monitor's payload gathering, httpd's request parsing).
func (s *Space) ReadBytesInto(addr Addr, buf []byte) error {
	if !s.mapped(addr, uint32(len(buf))) {
		return &SegfaultError{Addr: addr, Op: "read"}
	}
	return s.readInto(addr, buf)
}

// readInto copies the (already validated) range into buf page by page.
func (s *Space) readInto(addr Addr, buf []byte) error {
	for i := 0; i < len(buf); {
		a := addr + Addr(i)
		off := a % PageSize
		n := copy(buf[i:], s.page(a)[off:])
		i += n
	}
	return nil
}

// writeInto copies src into the (already validated) range page by
// page. Generic over string and []byte so WriteBytes and WriteString
// share one copy loop.
func writeInto[T ~string | ~[]byte](s *Space, addr Addr, src T) {
	for i := 0; i < len(src); {
		a := addr + Addr(i)
		off := a % PageSize
		n := copy(s.page(a)[off:], src[i:])
		i += n
	}
}

// WriteBytes stores b starting at addr, copying page by page.
func (s *Space) WriteBytes(addr Addr, b []byte) error {
	if !s.mapped(addr, uint32(len(b))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	writeInto(s, addr, b)
	return nil
}

// WriteString stores str starting at addr, page by page, without the
// []byte conversion (and its allocation) WriteBytes would need.
func (s *Space) WriteString(addr Addr, str string) error {
	if !s.mapped(addr, uint32(len(str))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	writeInto(s, addr, str)
	return nil
}

// ReadWord loads a little-endian 32-bit word.
func (s *Space) ReadWord(addr Addr) (word.Word, error) {
	b, err := s.ReadBytes(addr, word.Size)
	if err != nil {
		return 0, err
	}
	return word.FromBytes([word.Size]byte{b[0], b[1], b[2], b[3]}), nil
}

// WriteWord stores a little-endian 32-bit word.
func (s *Space) WriteWord(addr Addr, w word.Word) error {
	b := w.Bytes()
	return s.WriteBytes(addr, b[:])
}
