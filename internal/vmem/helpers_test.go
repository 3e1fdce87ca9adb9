package vmem

import (
	"fmt"

	"nvariant/internal/word"
)

// Canonical is the two-variant canonicalization, clearing the single
// partition bit: the reference CanonicalIn(addr, 1) is checked against.
func Canonical(addr Addr) Addr { return addr &^ word.HighBit }

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

// ReadBytes loads n bytes starting at addr into a new slice.
func (s *Space) ReadBytes(addr Addr, n uint32) ([]byte, error) {
	out := make([]byte, n)
	if err := s.ReadBytesInto(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pendingViews counts the segments that hold a pending view.
func (s *Space) pendingViews() int {
	n := 0
	for _, seg := range s.segments {
		if len(seg.view.src) > 0 {
			n++
		}
	}
	return n
}
