package vmem

import "bytes"

// A space can hold a range as a pending view: WriteView records that
// the range reads as a slice of bytes held elsewhere, without copying
// them. A segment holds at most one pending view. Reads and compares
// (LoadByte, ReadBytesInto, ReadWord, EqualGathered) read a view where
// it is and leave it pending; only a write deals with it, trimming away
// the part it overwrites.

// view is a segment's pending range: bytes [off, off+len(src)) read as
// src, which is not copied into the store. An empty src is no view.
type view struct {
	off int
	src []byte
}

func (v view) end() int { return v.off + len(v.src) }

// WriteView records that [addr, addr+len(v)) reads as v, copying
// nothing. v must never change while the space can still read it: the
// monitor passes views of a file's bytes (vos.OpenFile.Next), which no
// later write changes. The space never writes through v. A range not
// wholly mapped records nothing.
func (s *Space) WriteView(addr Addr, v []byte) error {
	if !s.mapped(addr, uint32(len(v))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	for i := 0; i < len(v); {
		seg := &s.segments[s.search(addr+Addr(i))]
		off := int(addr + Addr(i) - seg.base)
		n := min(len(v)-i, int(seg.size)-off)
		seg.put(view{off: off, src: v[i : i+n]})
		i += n
	}
	return nil
}

// put makes v's range, which is not empty, read as v. When v continues
// the segment's view, in the same array at the next offset, the two
// join as one view, so a file read in pieces stays one range. Otherwise
// v replaces that view, which is first copied into the store unless v
// covers all of it.
func (seg *segment) put(v view) {
	old := seg.view
	if len(old.src) > 0 && old.end() == v.off {
		if src, ok := join(old.src, v.src); ok {
			seg.view.src = src
			return
		}
	}
	if len(old.src) > 0 && (old.off < v.off || old.end() > v.end()) {
		seg.copyIn(old)
	}
	seg.view = v
}

// trim drops the part of the segment's view that falls in [off, end),
// which a write is about to overwrite. When that splits the view in
// two, the larger side stays pending and the smaller is copied into the
// store.
func (seg *segment) trim(off, end int) {
	v := seg.view
	if off >= v.end() || end <= v.off {
		return
	}
	lo, hi := max(off, v.off), min(end, v.end())
	keep := view{off: v.off, src: v.src[:lo-v.off]}
	rest := view{off: hi, src: v.src[hi-v.off:]}
	if len(keep.src) < len(rest.src) {
		keep, rest = rest, keep
	}
	if len(rest.src) > 0 {
		seg.copyIn(rest)
	}
	if len(keep.src) == 0 {
		keep = view{}
	}
	seg.view = keep
}

// copyIn copies v's bytes into the store at v's range.
func (seg *segment) copyIn(v view) {
	copy(seg.grow(v.end())[v.off:], v.src)
}

// join returns a followed by b as one slice when b is the memory right
// after a in a's own array, within a's capacity: then a reslice of a is
// exactly those bytes.
func join(a, b []byte) ([]byte, bool) {
	if cap(a)-len(a) < len(b) {
		return nil, false
	}
	ab := a[:len(a)+len(b)]
	return ab, &ab[len(a)] == &b[0]
}

// piece returns the longest run of at most n bytes at the mapped
// address addr that lies in one segment and is either all store or all
// the segment's pending view, and whether it is the view.
func (s *Space) piece(addr Addr, n int) ([]byte, bool) {
	seg := &s.segments[s.search(addr)]
	off := int(addr - seg.base)
	n = min(n, int(seg.size)-off)
	if v := seg.view; v.end() > off {
		if v.off <= off {
			p := v.src[off-v.off:]
			return p[:min(len(p), n)], true
		}
		n = min(n, v.off-off)
	}
	return seg.grow(off + n)[off : off+n], false
}

// EqualGathered reports whether the len(b) bytes at addr equal b,
// which ReadBytesInto copied from src at srcAddr: the monitor's output
// cross-check. It walks src's range piece by piece. A piece that src
// holds as a pending view, and that s holds pending at the same offset
// as the very same memory (same array, offset and length), reads the
// same in both, because a view never changes; it is not compared.
// Every other byte is compared in place, and nothing is copied into
// either space. An unmapped range of s is the SegfaultError a read of
// it returns; src's range is mapped, since b was read from it.
func (s *Space) EqualGathered(addr Addr, b []byte, src *Space, srcAddr Addr) (bool, error) {
	if !s.mapped(addr, uint32(len(b))) {
		return false, &SegfaultError{Addr: addr, Op: "read"}
	}
	for i := 0; i < len(b); {
		p, isView := src.piece(srcAddr+Addr(i), len(b)-i)
		n := len(p)
		if isView && s.holds(addr+Addr(i), p) {
			i += n
			continue
		}
		for end := i + n; i < end; {
			p, _ := s.piece(addr+Addr(i), end-i)
			if !bytes.Equal(p, b[i:i+len(p)]) {
				return false, nil
			}
			i += len(p)
		}
	}
	return true, nil
}

// holds reports whether the mapped range at addr is pending as exactly
// the memory of p.
func (s *Space) holds(addr Addr, p []byte) bool {
	q, isView := s.piece(addr, len(p))
	return isView && len(q) == len(p) && &q[0] == &p[0]
}
