package vmem

import (
	"bytes"
	"errors"
	"testing"
)

// equalSpan is the mapped extent the EqualBytes tests work in: three
// whole pages plus a partial fourth, so ranges can straddle every kind
// of page boundary and still run off the mapped end.
const equalSpan = 3*PageSize + 123

// patternSpace maps equalSpan bytes at a page-aligned base and fills
// them with a position-dependent pattern (seed varies it per input).
func patternSpace(t testing.TB, seed byte) (*Space, Addr, []byte) {
	t.Helper()
	s := New(PartitionLow)
	base, err := s.Alloc(equalSpan)
	if err != nil {
		t.Fatal(err)
	}
	if base%PageSize != 0 {
		t.Fatalf("base %s not page-aligned", base)
	}
	data := make([]byte, equalSpan)
	for i := range data {
		data[i] = byte(i*31+i>>8) ^ seed
	}
	if err := s.WriteBytes(base, data); err != nil {
		t.Fatal(err)
	}
	return s, base, data
}

func TestEqualBytes(t *testing.T) {
	s, base, data := patternSpace(t, 0)
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
	for _, r := range ranges {
		addr := base + Addr(r.off)
		want := data[r.off : r.off+r.len]
		if eq, err := s.EqualBytes(addr, want); err != nil || !eq {
			t.Errorf("%s: EqualBytes(identical) = %v, %v; want true", r.name, eq, err)
		}
		// A difference at the first and the last byte of every page the
		// range touches, and at the range's own ends.
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
			if eq, err := s.EqualBytes(addr, b); err != nil || eq {
				t.Errorf("%s: byte %d differs: EqualBytes = %v, %v; want false", r.name, at, eq, err)
			}
		}
	}

	// An unmapped tail faults even when every mapped byte matches, with
	// the error a read of the same range returns.
	for _, off := range []int{0, PageSize - 3, equalSpan - 1, equalSpan} {
		addr := base + Addr(off)
		b := append(bytes.Clone(data[off:]), 0)
		eq, err := s.EqualBytes(addr, b)
		var seg *SegfaultError
		if eq || !errors.As(err, &seg) || seg.Addr != addr || seg.Op != "read" {
			t.Errorf("unmapped tail at +%d: EqualBytes = %v, %v; want read segfault at %s", off, eq, err, addr)
		}
		if _, rerr := s.ReadBytes(addr, uint32(len(b))); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("unmapped tail at +%d: error %v, ReadBytes says %v", off, err, rerr)
		}
	}
}

// TestEqualBytesAllocates pins the compare as copy-free: it runs on
// every output syscall of every non-reference variant.
func TestEqualBytesAllocates(t *testing.T) {
	s, base, data := patternSpace(t, 0)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = s.EqualBytes(base, data) }); allocs != 0 {
		t.Errorf("EqualBytes: %.0f allocs, want 0", allocs)
	}
}

// FuzzEqualBytes checks EqualBytes against its definition:
// bytes.Equal of ReadBytes over the same range, at random offsets and
// lengths (some running off the mapping), with at most one mutated
// byte in the compared slice.
func FuzzEqualBytes(f *testing.F) {
	f.Add(uint16(0), uint16(equalSpan), uint16(0), byte(0), byte(0))
	f.Add(uint16(PageSize-1), uint16(2), uint16(1), byte(1), byte(7))
	f.Add(uint16(2*PageSize+5), uint16(PageSize), uint16(PageSize-6), byte(0x40), byte(9))
	f.Add(uint16(equalSpan-4), uint16(8), uint16(3), byte(0), byte(3))
	f.Fuzz(func(t *testing.T, off, n, at uint16, flip, seed byte) {
		s, base, data := patternSpace(t, seed)
		o := int(off) % (equalSpan + 1)
		l := int(n) % (equalSpan + PageSize)
		b := make([]byte, l)
		copy(b, data[o:])
		if l > 0 {
			b[int(at)%l] ^= flip
		}
		addr := base + Addr(o)
		eq, err := s.EqualBytes(addr, b)
		ref, rerr := s.ReadBytes(addr, uint32(l))
		if rerr != nil {
			if err == nil || err.Error() != rerr.Error() {
				t.Fatalf("EqualBytes(+%d, %d B) = %v, %v; ReadBytes failed with %v", o, l, eq, err, rerr)
			}
			return
		}
		if err != nil || eq != bytes.Equal(ref, b) {
			t.Fatalf("EqualBytes(+%d, %d B) = %v, %v; bytes.Equal says %v", o, l, eq, err, bytes.Equal(ref, b))
		}
	})
}
