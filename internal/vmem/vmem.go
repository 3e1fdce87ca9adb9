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
//
// Each mapped segment has its own backing store, so a bulk copy within
// one segment is a single memmove. A store holds only the prefix of its
// segment touched so far and grows by doubling up to the segment's
// size; bytes never touched read as zero. A range can also be pending:
// it reads as a view of bytes held elsewhere until a write reaches it
// (see WriteView).
package vmem

import (
	"fmt"
	"slices"

	"nvariant/internal/word"
)

// Addr is an address in a simulated 32-bit address space.
type Addr = word.Word

// PageSize is the guard offset Alloc leaves above the partition base,
// so address 0 (NULL) is never mapped. Backing storage is per segment,
// not per page.
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

// segment is a mapped region [base, base+size) with its backing store:
// store holds the region's first len(store) bytes, the prefix touched
// so far, except where its pending view covers them.
type segment struct {
	base  Addr
	size  uint32
	store []byte
	view  view // the pending range, if any
}

func (s segment) end() uint64 { return uint64(s.base) + uint64(s.size) }

// Space is a sparse, segment-mapped simulated address space. The zero
// value is not usable; construct with New.
type Space struct {
	partition Partition
	segments  []segment // sorted by base, non-overlapping
	brk       Addr      // next allocation address for Alloc
}

// New returns an empty address space confined to the given partition.
// Allocations made with Alloc start at the partition base plus a
// small guard offset so address 0 (NULL) is never mapped.
func New(partition Partition) *Space {
	return &Space{
		partition: partition,
		brk:       partition.Base() + PageSize,
	}
}

// CanonicalIn maps an address into the canonical (variant-0) address
// space of a 2^bits-way partitioned deployment by clearing the top
// bits index bits. This is the canonicalization function the monitor
// uses to compare address arguments across variants (§2, normal
// equivalence).
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
	// The first segment ending above base is the only one the new
	// region can overlap, and the place it goes otherwise.
	i := s.search(base)
	if i < len(s.segments) {
		if seg := s.segments[i]; uint64(seg.base) < uint64(base)+uint64(size) {
			return fmt.Errorf("vmem: map %s+%d: overlaps segment %s+%d", base, size, seg.base, seg.size)
		}
	}
	s.segments = slices.Insert(s.segments, i, segment{base: base, size: size})
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

// search returns the index of the first segment that ends above addr
// (len(s.segments) if none does).
func (s *Space) search(addr Addr) int {
	lo, hi := 0, len(s.segments)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.segments[m].end() <= uint64(addr) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
	for _, seg := range s.segments[s.search(addr):] {
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

// at returns the backing store of the segment holding addr, from addr
// to the store's end, for a write of the next n bytes or the rest of
// the segment, whichever is shorter: it first trims the pending view
// away from those bytes and grows the store to cover them. The caller
// has checked that addr is mapped and n > 0.
func (s *Space) at(addr Addr, n int) []byte {
	seg := &s.segments[s.search(addr)]
	off := int(addr - seg.base)
	if len(seg.view.src) > 0 {
		seg.trim(off, min(off+n, int(seg.size)))
	}
	return seg.grow(off + n)[off:]
}

// grow returns the store, first growing it to cover its first need
// bytes or the whole segment, whichever is shorter.
func (seg *segment) grow(need int) []byte {
	if need = min(need, int(seg.size)); need > len(seg.store) {
		store := make([]byte, min(max(need, 2*len(seg.store)), int(seg.size)))
		copy(store, seg.store)
		seg.store = store
	}
	return seg.store
}

// Resident returns the bytes of backing store the space holds: the sum
// over its segments of the prefix touched so far. A pending view adds
// nothing until a write copies part of it in.
func (s *Space) Resident() int {
	n := 0
	for _, seg := range s.segments {
		n += len(seg.store)
	}
	return n
}

// LoadByte loads one byte.
func (s *Space) LoadByte(addr Addr) (byte, error) {
	if !s.mapped(addr, 1) {
		return 0, &SegfaultError{Addr: addr, Op: "read"}
	}
	p, _ := s.piece(addr, 1)
	return p[0], nil
}

// ReadBytesInto loads len(buf) bytes starting at addr into buf; the
// caller owns buf and may reuse it (the monitor's payload gathering,
// httpd's request parsing).
func (s *Space) ReadBytesInto(addr Addr, buf []byte) error {
	if !s.mapped(addr, uint32(len(buf))) {
		return &SegfaultError{Addr: addr, Op: "read"}
	}
	s.readInto(addr, buf)
	return nil
}

// readInto copies the (already validated) range into buf, one copy per
// segment it spans and per side of a pending view, which it reads where
// it is and leaves pending.
func (s *Space) readInto(addr Addr, buf []byte) {
	for i := 0; i < len(buf); {
		p, _ := s.piece(addr+Addr(i), len(buf)-i)
		i += copy(buf[i:], p)
	}
}

// writeInto copies src into the (already validated) range, one copy per
// segment it spans. Generic over string and []byte so WriteBytes and
// WriteString share one copy loop.
func writeInto[T ~string | ~[]byte](s *Space, addr Addr, src T) {
	for i := 0; i < len(src); {
		i += copy(s.at(addr+Addr(i), len(src)-i), src[i:])
	}
}

// WriteBytes stores b starting at addr. A range not wholly mapped
// writes nothing.
func (s *Space) WriteBytes(addr Addr, b []byte) error {
	if !s.mapped(addr, uint32(len(b))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	writeInto(s, addr, b)
	return nil
}

// WriteString stores str starting at addr without the []byte
// conversion (and its allocation) WriteBytes would need.
func (s *Space) WriteString(addr Addr, str string) error {
	if !s.mapped(addr, uint32(len(str))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	writeInto(s, addr, str)
	return nil
}

// ReadWord loads a little-endian 32-bit word, allocating nothing.
func (s *Space) ReadWord(addr Addr) (word.Word, error) {
	var b [word.Size]byte
	if err := s.ReadBytesInto(addr, b[:]); err != nil {
		return 0, err
	}
	return word.FromBytes(b), nil
}

// WriteWord stores a little-endian 32-bit word.
func (s *Space) WriteWord(addr Addr, w word.Word) error {
	b := w.Bytes()
	return s.WriteBytes(addr, b[:])
}
