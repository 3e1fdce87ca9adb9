package vmem

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"nvariant/internal/word"
)

// pageSpace is the reference model FuzzSpace checks Space against: the
// earlier implementation, which backed every mapped byte by a 4 KiB
// page in a map keyed by page base and copied page by page.
type pageSpace struct {
	partition Partition
	segments  []segment // only base and size are used
	pages     map[Addr][]byte
	brk       Addr
}

func newPageSpace(partition Partition) *pageSpace {
	return &pageSpace{
		partition: partition,
		pages:     make(map[Addr][]byte),
		brk:       partition.Base() + PageSize,
	}
}

func (s *pageSpace) Map(base Addr, size uint32) error {
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

func (s *pageSpace) Alloc(size uint32) (Addr, error) {
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

func (s *pageSpace) mapped(addr Addr, n uint32) bool {
	if n == 0 {
		return true
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return false
	}
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

func (s *pageSpace) page(addr Addr) []byte {
	base := addr &^ Addr(PageSize-1)
	p, ok := s.pages[base]
	if !ok {
		p = make([]byte, PageSize)
		s.pages[base] = p
	}
	return p
}

func (s *pageSpace) LoadByte(addr Addr) (byte, error) {
	if !s.mapped(addr, 1) {
		return 0, &SegfaultError{Addr: addr, Op: "read"}
	}
	return s.page(addr)[addr%PageSize], nil
}

func (s *pageSpace) ReadBytesInto(addr Addr, buf []byte) error {
	if !s.mapped(addr, uint32(len(buf))) {
		return &SegfaultError{Addr: addr, Op: "read"}
	}
	for i := 0; i < len(buf); {
		a := addr + Addr(i)
		i += copy(buf[i:], s.page(a)[a%PageSize:])
	}
	return nil
}

func (s *pageSpace) EqualBytes(addr Addr, b []byte) (bool, error) {
	if !s.mapped(addr, uint32(len(b))) {
		return false, &SegfaultError{Addr: addr, Op: "read"}
	}
	for i := 0; i < len(b); {
		a := addr + Addr(i)
		p := s.page(a)[a%PageSize:]
		n := min(len(p), len(b)-i)
		if !bytes.Equal(p[:n], b[i:i+n]) {
			return false, nil
		}
		i += n
	}
	return true, nil
}

func (s *pageSpace) WriteBytes(addr Addr, b []byte) error {
	if !s.mapped(addr, uint32(len(b))) {
		return &SegfaultError{Addr: addr, Op: "write"}
	}
	for i := 0; i < len(b); {
		a := addr + Addr(i)
		i += copy(s.page(a)[a%PageSize:], b[i:])
	}
	return nil
}

func (s *pageSpace) ReadWord(addr Addr) (word.Word, error) {
	var b [word.Size]byte
	if err := s.ReadBytesInto(addr, b[:]); err != nil {
		return 0, err
	}
	return word.FromBytes(b), nil
}

// fuzzSpan is the address window FuzzSpace works in, from the partition
// base: a few pages, so mapped regions, page edges, adjacent segments
// and gaps all fall inside ranges a few KiB long.
const fuzzSpan = 6 * PageSize

// sameErr reports whether two errors agree: both nil, or both non-nil
// with the same message (a SegfaultError's message carries its address
// and operation).
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzSpace drives Space and the pageSpace reference model with the
// same program of Map, Alloc, WriteBytes, WriteString, WriteWord,
// WriteView, ReadBytesInto, EqualGathered, LoadByte and ReadWord
// calls, decoded from the fuzz input four bytes per call, and
// requires the same bytes and the same errors from both — then compares
// the segment lists and every mapped byte. The reference stores a
// WriteView's bytes with WriteBytes. Views are slices of one source
// array, and one op continues the last view with the next bytes of the
// array at the next address, so views join, straddle segments and are
// partly overwritten, read and compared. After every op the source
// array must still hold what it held before: nothing writes through a
// view.
func FuzzSpace(f *testing.F) {
	// Two adjacent allocations, then a write across their boundary
	// and a read back across both.
	f.Add([]byte{1, 0x10, 0x20, 0, 1, 0x40, 0x00, 0, 2, 0x0f, 0xf0, 0x90, 3, 0x0f, 0xf8, 0x30})
	// A mapped region with a gap above it: writes and compares that
	// run into the gap fault and must leave every byte as it was.
	f.Add([]byte{0, 0x02, 0x00, 0x10, 0, 0x08, 0x00, 0x10, 2, 0x02, 0xff, 0xf0, 4, 0x01, 0x00, 0x40, 3, 0x02, 0x80, 0xff})
	// Page-straddling writes, words and byte loads inside one mapping.
	f.Add([]byte{0, 0x01, 0x00, 0x30, 5, 0x01, 0xfe, 0x00, 6, 0x01, 0xfe, 0x00, 2, 0x01, 0xf0, 0x20, 7, 0x02, 0x00, 0, 8, 0x01, 0xff, 0})
	// Two adjacent allocations, a view across their boundary continued
	// twice (the views join), partial overwrites and reads of the
	// pending range, a read and a compare over it.
	f.Add([]byte{1, 0x10, 0x20, 0x40, 1, 0x40, 0x00, 0x40, 9, 0x18, 0x00, 0x20, 10, 0, 0, 0x10, 10, 0, 0, 0x08,
		4, 0x18, 0x10, 0x30, 6, 0x20, 0x10, 0, 5, 0x18, 0x08, 0x31, 7, 0x1a, 0x00, 0, 2, 0x1b, 0x00, 0x02, 4, 0x18, 0x00, 0x40})
	// A fresh view into the middle of a pending one in the same
	// segment, which must first copy the old view in, then a read
	// across both.
	f.Add([]byte{1, 0x10, 0x20, 0x40, 9, 0x10, 0x00, 0x20, 9, 0x12, 0x00, 0x08, 4, 0x10, 0x00, 0x30})
	f.Fuzz(func(t *testing.T, prog []byte) {
		got, want := New(PartitionLow), newPageSpace(PartitionLow)
		// plain is mapped like got but never written, so it holds no
		// view and EqualGathered against it compares every byte.
		plain := New(PartitionLow)
		base := PartitionLow.Base()
		viewSrc := pattern(fuzzSpan, 0x3c)
		pristine := bytes.Clone(viewSrc)
		// The address and source offset right after the last view.
		nextAddr, nextSrc := base, 0
		for pc := 0; pc+4 <= len(prog) && pc < 4*64; pc += 4 {
			op, x, y := prog[pc], int(prog[pc+1]), int(prog[pc+2])
			n := int(prog[pc+3])
			// Any address in the window, and a length of up to a little
			// over two pages.
			addr := base + Addr((x<<8|y)%fuzzSpan)
			l := n * 37
			data := make([]byte, l)
			for i := range data {
				data[i] = byte(i*7) ^ op ^ byte(pc)
			}
			switch op % 11 {
			case 0:
				size := uint32(n+1) * 64
				if e1, e2 := got.Map(addr, size), want.Map(addr, size); !sameErr(e1, e2) {
					t.Fatalf("Map(%s, %d) = %v, reference %v", addr, size, e1, e2)
				}
				_ = plain.Map(addr, size)
			case 1:
				size := uint32(n+1) * 37
				a1, e1 := got.Alloc(size)
				a2, e2 := want.Alloc(size)
				if a1 != a2 || !sameErr(e1, e2) {
					t.Fatalf("Alloc(%d) = %s, %v; reference %s, %v", size, a1, e1, a2, e2)
				}
				_, _ = plain.Alloc(size)
			case 2:
				if e1, e2 := got.WriteBytes(addr, data), want.WriteBytes(addr, data); !sameErr(e1, e2) {
					t.Fatalf("WriteBytes(%s, %d B) = %v, reference %v", addr, l, e1, e2)
				}
			case 3:
				if e1, e2 := got.WriteString(addr, string(data)), want.WriteBytes(addr, data); !sameErr(e1, e2) {
					t.Fatalf("WriteString(%s, %d B) = %v, reference %v", addr, l, e1, e2)
				}
			case 4:
				b1, b2 := make([]byte, l), make([]byte, l)
				e1, e2 := got.ReadBytesInto(addr, b1), want.ReadBytesInto(addr, b2)
				if !sameErr(e1, e2) || (e1 == nil && !bytes.Equal(b1, b2)) {
					t.Fatalf("ReadBytesInto(%s, %d B) = %v, reference %v (bytes equal: %v)", addr, l, e1, e2, bytes.Equal(b1, b2))
				}
			case 5:
				// Compare against what the reference holds, with one byte
				// flipped when y is odd.
				b := make([]byte, l)
				_ = want.ReadBytesInto(addr, b)
				if l > 0 && y%2 == 1 {
					b[x%l] ^= 0x5a
				}
				eq1, e1 := got.EqualGathered(addr, b, plain, addr)
				eq2, e2 := want.EqualBytes(addr, b)
				if eq1 != eq2 || !sameErr(e1, e2) {
					t.Fatalf("EqualGathered(%s, %d B) = %v, %v; reference %v, %v", addr, l, eq1, e1, eq2, e2)
				}
			case 6:
				w := word.Word(x<<24 | y<<16 | n<<8 | int(op))
				wb := w.Bytes()
				if e1, e2 := got.WriteWord(addr, w), want.WriteBytes(addr, wb[:]); !sameErr(e1, e2) {
					t.Fatalf("WriteWord(%s) = %v, reference %v", addr, e1, e2)
				}
			case 7:
				b1, e1 := got.LoadByte(addr)
				b2, e2 := want.LoadByte(addr)
				if b1 != b2 || !sameErr(e1, e2) {
					t.Fatalf("LoadByte(%s) = %d, %v; reference %d, %v", addr, b1, e1, b2, e2)
				}
			case 8:
				w1, e1 := got.ReadWord(addr)
				w2, e2 := want.ReadWord(addr)
				if w1 != w2 || !sameErr(e1, e2) {
					t.Fatalf("ReadWord(%s) = %s, %v; reference %s, %v", addr, w1, e1, w2, e2)
				}
			case 9, 10:
				// A fresh view from anywhere in the source, or the
				// continuation of the last one.
				at, from := addr, (x<<8|y)%fuzzSpan
				if op%11 == 10 {
					at, from = nextAddr, nextSrc
				}
				v := viewSrc[from:min(from+l, fuzzSpan)]
				if e1, e2 := got.WriteView(at, v), want.WriteBytes(at, v); !sameErr(e1, e2) {
					t.Fatalf("WriteView(%s, %d B) = %v, reference %v", at, len(v), e1, e2)
				}
				nextAddr, nextSrc = at+Addr(len(v)), (from+len(v))%fuzzSpan
			}
			if !bytes.Equal(viewSrc, pristine) {
				t.Fatalf("op %d at %s changed a view's source array", op%11, addr)
			}
		}
		if !slices.Equal(segmentPairs(got), segmentPairs(&Space{segments: want.segments})) {
			t.Fatalf("after the program, segments %v; reference %v", segmentPairs(got), segmentPairs(&Space{segments: want.segments}))
		}
		for _, seg := range want.segments {
			b1, b2 := make([]byte, seg.size), make([]byte, seg.size)
			e1, e2 := got.ReadBytesInto(seg.base, b1), want.ReadBytesInto(seg.base, b2)
			if e1 != nil || e2 != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("after the program, segment %s+%d reads %v, reference %v (bytes equal: %v)", seg.base, seg.size, e1, e2, bytes.Equal(b1, b2))
			}
		}
	})
}
