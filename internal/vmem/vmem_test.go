package vmem

import (
	"errors"
	"testing"
	"testing/quick"

	"nvariant/internal/word"
)

func TestPartitionContains(t *testing.T) {
	tests := []struct {
		p    Partition
		addr Addr
		want bool
	}{
		{PartitionLow, 0x00001000, true},
		{PartitionLow, 0x80001000, false},
		{PartitionHigh, 0x80001000, true},
		{PartitionHigh, 0x00001000, false},
		{PartitionNone, 0x00001000, true},
		{PartitionNone, 0x80001000, true},
	}
	for _, tt := range tests {
		if got := tt.p.Contains(tt.addr); got != tt.want {
			t.Errorf("%v.Contains(%s) = %v, want %v", tt.p, tt.addr, got, tt.want)
		}
	}
}

func TestPartitionString(t *testing.T) {
	slot2of4, err := PartitionSlot(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range map[Partition]string{
		PartitionNone: "none", PartitionLow: "low", PartitionHigh: "high", slot2of4: "slot 2/4",
	} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestPartitionSlots(t *testing.T) {
	// The paper's two-variant split is the count=2 special case.
	low, err := PartitionSlot(0, 2)
	if err != nil || low != PartitionLow {
		t.Fatalf("PartitionSlot(0,2) = %v, %v", low, err)
	}
	high, err := PartitionSlot(1, 2)
	if err != nil || high != PartitionHigh {
		t.Fatalf("PartitionSlot(1,2) = %v, %v", high, err)
	}

	// N=3 rounds up to a 4-way split; every slot is disjoint from
	// every other and together they tile the space.
	for count := 3; count <= 5; count++ {
		bits := PartitionBits(count)
		slots := make([]Partition, count)
		for i := range slots {
			p, err := PartitionSlot(i, count)
			if err != nil {
				t.Fatalf("PartitionSlot(%d,%d): %v", i, count, err)
			}
			slots[i] = p
			if p.bits != bits || p.index != i {
				t.Errorf("slot %d/%d = bits %d index %d", i, count, p.bits, p.index)
			}
		}
		for i, p := range slots {
			if !p.Contains(p.Base()) {
				t.Errorf("slot %d does not contain its base %s", i, p.Base())
			}
			for j, q := range slots {
				if i != j && q.Contains(p.Base()) {
					t.Errorf("slot %d base %s also inside slot %d", i, p.Base(), j)
				}
			}
		}
	}

	if _, err := PartitionSlot(4, 4); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := PartitionSlot(-1, 2); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestCanonicalIn(t *testing.T) {
	// Two-way: CanonicalIn(·, 1) must agree with the legacy Canonical.
	for _, a := range []Addr{0, 0x1000, 0x7FFFFFFF, 0x80001000, 0xFFFFFFFF} {
		if got, want := CanonicalIn(a, 1), Canonical(a); got != want {
			t.Errorf("CanonicalIn(%s,1) = %s, want %s", a, got, want)
		}
	}
	// Four-way: any slot's address maps back to the slot-0 offset.
	for i := 0; i < 4; i++ {
		p, err := PartitionSlot(i, 4)
		if err != nil {
			t.Fatal(err)
		}
		addr := p.Base() + 0x1234
		if got := CanonicalIn(addr, p.bits); got != 0x1234 {
			t.Errorf("slot %d: CanonicalIn(%s) = %s, want 0x1234", i, addr, got)
		}
	}
	if got := CanonicalIn(0x80001234, 0); got != 0x80001234 {
		t.Errorf("bits=0 must be identity, got %s", got)
	}
}

func TestSlotSpaceAllocStaysInSlot(t *testing.T) {
	for i := 0; i < 4; i++ {
		p, err := PartitionSlot(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			// Slot 3 exists in the rounded-up 4-way split; a 3-variant
			// deployment just leaves it empty.
			continue
		}
		s := New(p)
		addr, err := s.Alloc(4096)
		if err != nil {
			t.Fatalf("slot %d: Alloc: %v", i, err)
		}
		if !p.Contains(addr) {
			t.Errorf("slot %d: Alloc returned %s outside the slot", i, addr)
		}
		// Mapping outside the slot must fault.
		other := CanonicalIn(addr, p.bits) // slot-0 image
		if i != 0 {
			if err := s.Map(other, 16); err == nil {
				t.Errorf("slot %d: mapping slot-0 address %s did not fault", i, other)
			}
		}
	}
}

func TestAllocAndRoundTrip(t *testing.T) {
	s := New(PartitionLow)
	addr, err := s.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if !PartitionLow.Contains(addr) {
		t.Fatalf("Alloc returned %s outside low partition", addr)
	}
	if err := s.WriteBytes(addr, []byte("hello")); err != nil {
		t.Fatalf("WriteBytes: %v", err)
	}
	got, err := s.ReadBytes(addr, 5)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if string(got) != "hello" {
		t.Errorf("ReadBytes = %q, want hello", got)
	}
}

func TestAllocAdjacency(t *testing.T) {
	// Consecutive allocations must be adjacent: the planted overflow
	// relies on the request buffer sitting directly below the uid.
	s := New(PartitionHigh)
	a, err := s.Alloc(256)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	b, err := s.Alloc(4)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b != a+256 {
		t.Errorf("second Alloc at %s, want %s", b, a+256)
	}
	// Writing 260 bytes starting at a overflows into b.
	payload := make([]byte, 260)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := s.WriteBytes(a, payload); err != nil {
		t.Fatalf("overflowing write: %v", err)
	}
	w, err := s.ReadWord(b)
	if err != nil {
		t.Fatalf("ReadWord: %v", err)
	}
	want := word.FromBytes([4]byte{0, 1, 2, 3})
	if w != want {
		t.Errorf("overflowed word = %s, want %s", w, want)
	}
}

func TestUnmappedAccessSegfaults(t *testing.T) {
	s := New(PartitionLow)
	var segv *SegfaultError
	if _, err := s.LoadByte(0x00400000); !errors.As(err, &segv) {
		t.Errorf("LoadByte unmapped = %v, want SegfaultError", err)
	}
	if err := s.WriteBytes(0x00400000, []byte{1}); !errors.As(err, &segv) {
		t.Errorf("WriteBytes unmapped = %v, want SegfaultError", err)
	}
	if _, err := s.ReadBytes(0x00400000, 8); !errors.As(err, &segv) {
		t.Errorf("ReadBytes unmapped = %v, want SegfaultError", err)
	}
}

func TestNullIsNeverMapped(t *testing.T) {
	s := New(PartitionLow)
	if _, err := s.Alloc(16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadByte(0); err == nil {
		t.Error("address 0 readable; NULL must fault")
	}
}

func TestCrossPartitionAccessSegfaults(t *testing.T) {
	// This is the Figure 1 detection semantics: variant 1's space
	// faults on any variant-0 absolute address.
	s := New(PartitionHigh)
	addr, err := s.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	lowAlias := Canonical(addr)
	var segv *SegfaultError
	if _, err := s.LoadByte(lowAlias); !errors.As(err, &segv) {
		t.Errorf("read of low alias %s = %v, want SegfaultError", lowAlias, err)
	}
}

func TestMapRejectsOutOfPartition(t *testing.T) {
	s := New(PartitionLow)
	var segv *SegfaultError
	if err := s.Map(0x80000000, 64); !errors.As(err, &segv) {
		t.Errorf("Map(high) = %v, want SegfaultError", err)
	}
	// A region straddling the partition boundary must also fail.
	if err := s.Map(0x7FFFFFF0, 64); !errors.As(err, &segv) {
		t.Errorf("Map(straddle) = %v, want SegfaultError", err)
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	s := New(PartitionNone)
	if err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x1800, 16); err == nil {
		t.Error("overlapping Map succeeded")
	}
	if err := s.Map(0x0FFF, 2); err == nil {
		t.Error("overlapping Map (front edge) succeeded")
	}
}

func TestMapRejectsZeroAndWrap(t *testing.T) {
	s := New(PartitionNone)
	if err := s.Map(0x1000, 0); err == nil {
		t.Error("zero-size Map succeeded")
	}
	if err := s.Map(0xFFFFFFF0, 32); err == nil {
		t.Error("wrapping Map succeeded")
	}
}

func TestReadSpansSegments(t *testing.T) {
	// Two adjacent Map calls form a contiguous readable range.
	s := New(PartitionNone)
	if err := s.Map(0x2000, 16); err != nil {
		t.Fatal(err)
	}
	if err := s.Map(0x2010, 16); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(0x2008, make([]byte, 16)); err != nil {
		t.Errorf("write spanning adjacent segments: %v", err)
	}
	// But a gap faults.
	if err := s.Map(0x3000, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBytes(0x2018, make([]byte, 0x1000)); err == nil {
		t.Error("write across unmapped gap succeeded")
	}
}

func TestWordRoundTrip(t *testing.T) {
	s := New(PartitionLow)
	addr, err := s.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(addr, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	w, err := s.ReadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xDEADBEEF {
		t.Errorf("ReadWord = %s, want 0xDEADBEEF", w)
	}
}

// TestReadWordAllocates pins ReadWord as allocation-free: httpd reads
// the worker-UID word once per request in every variant.
func TestReadWordAllocates(t *testing.T) {
	s := New(PartitionLow)
	addr, err := s.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteWord(addr, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = s.ReadWord(addr) }); allocs != 0 {
		t.Errorf("ReadWord: %.0f allocs, want 0", allocs)
	}
}

func TestAllocAligned(t *testing.T) {
	s := New(PartitionLow)
	if _, err := s.Alloc(10); err != nil {
		t.Fatal(err)
	}
	addr, err := s.AllocAligned(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if addr%64 != 0 {
		t.Errorf("AllocAligned returned %s, not 64-aligned", addr)
	}
	if _, err := s.AllocAligned(16, 3); err == nil {
		t.Error("AllocAligned accepted non-power-of-two alignment")
	}
	if _, err := s.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
}

func TestCanonical(t *testing.T) {
	if Canonical(0x80001234) != 0x00001234 {
		t.Error("Canonical should clear the partition bit")
	}
	if Canonical(0x00001234) != 0x00001234 {
		t.Error("Canonical must not change low addresses")
	}
}

// segmentPairs returns the mapped regions as (base, size) pairs in
// address order.
func segmentPairs(s *Space) [][2]uint64 {
	out := make([][2]uint64, len(s.segments))
	for i, seg := range s.segments {
		out[i] = [2]uint64{uint64(seg.base), uint64(seg.size)}
	}
	return out
}

func TestSegmentsSnapshot(t *testing.T) {
	s := New(PartitionLow)
	a, _ := s.Alloc(10)
	segs := segmentPairs(s)
	if len(segs) != 1 || segs[0][0] != uint64(a) || segs[0][1] != 10 {
		t.Errorf("Segments = %v, want [[%d 10]]", segs, a)
	}
}

func TestQuickByteRoundTrip(t *testing.T) {
	s := New(PartitionHigh)
	base, err := s.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, b byte) bool {
		a := base + Addr(off%4096)
		if err := s.WriteBytes(a, []byte{b}); err != nil {
			return false
		}
		got, err := s.LoadByte(a)
		return err == nil && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWriteReadBytes(t *testing.T) {
	s := New(PartitionLow)
	base, err := s.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := base + Addr(off%4096)
		if err := s.WriteBytes(a, data); err != nil {
			return false
		}
		got, err := s.ReadBytes(a, uint32(len(data)))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
