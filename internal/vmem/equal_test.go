package vmem

import (
	"bytes"
	"errors"
	"testing"
)

// equalSpan is the mapped extent the EqualGathered tests work in: three
// whole pages plus a partial fourth, so ranges can straddle every kind
// of page boundary and still run off the mapped end.
const equalSpan = 3*PageSize + 123

// pattern returns n position-dependent bytes (seed varies them).
func pattern(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31+i>>8) ^ seed
	}
	return data
}

// patternSpace maps equalSpan bytes at a page-aligned base and fills
// them with pattern(equalSpan, seed): copied into the store, or, with
// asView, as one pending view of the returned slice.
func patternSpace(t testing.TB, seed byte, asView bool) (*Space, Addr, []byte) {
	t.Helper()
	s := New(PartitionLow)
	base, err := s.Alloc(equalSpan)
	if err != nil {
		t.Fatal(err)
	}
	if base%PageSize != 0 {
		t.Fatalf("base %s not page-aligned", base)
	}
	data := pattern(equalSpan, seed)
	write := s.WriteBytes
	if asView {
		write = s.WriteView
	}
	if err := write(base, data); err != nil {
		t.Fatal(err)
	}
	return s, base, data
}

// TestEqualBytes: EqualGathered compares every byte of ranges that
// straddle page boundaries, whether the space holds them in its store
// or as a pending view, against a source space that holds them in its
// store, so nothing may be skipped.
func TestEqualBytes(t *testing.T) {
	ranges := []struct {
		name     string
		off, len int
	}{
		{"empty", 100, 0},
		{"one byte", 7, 1},
		{"inside a page", 10, 200},
		{"one whole page", PageSize, PageSize},
		{"straddles one boundary", PageSize - 5, 10},
		{"straddles two boundaries", PageSize - 1, PageSize + 2},
		{"every page", 0, equalSpan},
		{"mid-page to the mapped end", 2*PageSize + 17, equalSpan - 2*PageSize - 17},
	}
	src, _, _ := patternSpace(t, 0, false)
	for _, asView := range []bool{false, true} {
		s, base, data := patternSpace(t, 0, asView)
		for _, r := range ranges {
			addr := base + Addr(r.off)
			want := data[r.off : r.off+r.len]
			if eq, err := s.EqualGathered(addr, want, src, addr); err != nil || !eq {
				t.Errorf("%s (view %v): EqualGathered(identical) = %v, %v; want true", r.name, asView, eq, err)
			}
			// A difference at the first and the last byte of every page
			// the range touches, and at the range's own ends.
			var probes []int
			for p := r.off &^ (PageSize - 1); p < r.off+r.len; p += PageSize {
				probes = append(probes, p, p+PageSize-1)
			}
			probes = append(probes, r.off, r.off+r.len-1)
			for _, at := range probes {
				if at < r.off || at >= r.off+r.len {
					continue
				}
				b := bytes.Clone(want)
				b[at-r.off] ^= 0x80
				if eq, err := s.EqualGathered(addr, b, src, addr); err != nil || eq {
					t.Errorf("%s (view %v): byte %d differs: EqualGathered = %v, %v; want false", r.name, asView, at, eq, err)
				}
			}
		}
		if asView && (s.Resident() != 0 || s.pendingViews() != 1) {
			t.Errorf("compares copied the view in: resident %d B, %d pending views", s.Resident(), s.pendingViews())
		}

		// An unmapped tail faults even when every mapped byte matches,
		// with the error a read of the same range returns.
		for _, off := range []int{0, PageSize - 3, equalSpan - 1, equalSpan} {
			addr := base + Addr(off)
			b := append(bytes.Clone(data[off:]), 0)
			eq, err := s.EqualGathered(addr, b, src, addr)
			var seg *SegfaultError
			if eq || !errors.As(err, &seg) || seg.Addr != addr || seg.Op != "read" {
				t.Errorf("unmapped tail at +%d: EqualGathered = %v, %v; want read segfault at %s", off, eq, err, addr)
			}
			if _, rerr := s.ReadBytes(addr, uint32(len(b))); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("unmapped tail at +%d: error %v, ReadBytes says %v", off, err, rerr)
			}
		}
	}
}

// TestEqualBytesAllocates pins the gather and the compare as
// allocation-free: they run on every output syscall.
func TestEqualBytesAllocates(t *testing.T) {
	dst := make([]byte, equalSpan)
	for _, asView := range []bool{false, true} {
		s, base, data := patternSpace(t, 0, asView)
		other := New(PartitionLow)
		if _, err := other.Alloc(equalSpan); err != nil {
			t.Fatal(err)
		}
		if err := other.WriteView(base, data); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_ = s.ReadBytesInto(base, dst)
			_, _ = other.EqualGathered(base, dst, s, base)
		}); allocs != 0 {
			t.Errorf("view %v: ReadBytesInto and EqualGathered: %.0f allocs, want 0", asView, allocs)
		}
	}
}

// holdAs puts data into s at addr the way mode says: 0 copies it into
// the store, 1 as one view of data, 2 as consecutive 1000-byte views of
// data (which join), 3 as a view of a copy of data, 4 as a view of
// shifted[1:], the same array as data one byte further on.
func holdAs(s *Space, addr Addr, mode byte, data, shifted []byte) error {
	switch mode % 5 {
	case 0:
		return s.WriteBytes(addr, data)
	case 1:
		return s.WriteView(addr, data)
	case 2:
		for i := 0; i < len(data); i += 1000 {
			if err := s.WriteView(addr+Addr(i), data[i:min(i+1000, len(data))]); err != nil {
				return err
			}
		}
		return nil
	case 3:
		return s.WriteView(addr, bytes.Clone(data))
	default:
		return s.WriteView(addr, shifted[1:len(data)+1])
	}
}

// FuzzEqualBytes checks EqualGathered against its definition:
// bytes.Equal of what the two spaces read over the same range. The
// reference space and the compared one each hold the same bytes in
// the store or as views of one array (the same view, joined views, a
// copy, or the array one byte further on); at most one byte of the
// compared space is then overwritten. Ranges run at random offsets and
// lengths, some off the mapping.
func FuzzEqualBytes(f *testing.F) {
	f.Add(uint16(0), uint16(equalSpan), uint16(0), byte(0), byte(0x11))
	f.Add(uint16(PageSize-1), uint16(2), uint16(PageSize), byte(1), byte(0x12))
	f.Add(uint16(2*PageSize+5), uint16(PageSize), uint16(3*PageSize), byte(0x40), byte(0x21))
	f.Add(uint16(equalSpan-4), uint16(8), uint16(equalSpan-1), byte(0), byte(0x41))
	f.Add(uint16(10), uint16(3000), uint16(500), byte(0), byte(0x14))
	f.Fuzz(func(t *testing.T, off, n, at uint16, flip, mode byte) {
		arr := pattern(equalSpan+1, 0)
		data := arr[:equalSpan]
		ref, other := New(PartitionLow), New(PartitionLow)
		base, err := ref.Alloc(equalSpan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Alloc(equalSpan); err != nil {
			t.Fatal(err)
		}
		if err := holdAs(ref, base, mode&0xf, data, arr); err != nil {
			t.Fatal(err)
		}
		if err := holdAs(other, base, mode>>4, data, arr); err != nil {
			t.Fatal(err)
		}
		if flip != 0 {
			p := base + Addr(int(at)%equalSpan)
			b, _ := other.LoadByte(p)
			if err := other.WriteBytes(p, []byte{b ^ flip}); err != nil {
				t.Fatal(err)
			}
		}
		o := int(off) % (equalSpan + 1)
		l := int(n) % (equalSpan + PageSize)
		addr := base + Addr(o)
		b := make([]byte, l)
		rerr := ref.ReadBytesInto(addr, b)
		eq, err := other.EqualGathered(addr, b, ref, addr)
		got, oerr := other.ReadBytes(addr, uint32(l))
		if rerr != nil || oerr != nil {
			if rerr == nil || oerr == nil || err == nil || err.Error() != oerr.Error() {
				t.Fatalf("(+%d, %d B): EqualGathered %v, %v; reads failed with %v, %v", o, l, eq, err, rerr, oerr)
			}
			return
		}
		if err != nil || eq != bytes.Equal(got, b) {
			t.Fatalf("EqualGathered(+%d, %d B) = %v, %v; bytes.Equal says %v", o, l, eq, err, bytes.Equal(got, b))
		}
		if !bytes.Equal(arr, pattern(equalSpan+1, 0)) {
			t.Fatal("a view's source array changed")
		}
	})
}
