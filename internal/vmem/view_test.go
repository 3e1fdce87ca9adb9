package vmem

import "testing"

// TestConsecutiveViewsJoin: 1,000 consecutive 64-byte views of one
// array, written to consecutive addresses, are one pending range, and
// the space backs none of it until a write reaches it; reads leave it
// pending.
func TestConsecutiveViewsJoin(t *testing.T) {
	const views, size = 1000, 64
	arr := pattern(views*size, 7)
	s := New(PartitionLow)
	base, err := s.Alloc(views * size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < views; i++ {
		if err := s.WriteView(base+Addr(i*size), arr[i*size:(i+1)*size]); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.pendingViews(); n != 1 {
		t.Fatalf("%d views pending, want 1", n)
	}
	if r := s.Resident(); r != 0 {
		t.Fatalf("resident = %d B before the range is touched, want 0", r)
	}
	dst := make([]byte, len(arr))
	if err := s.ReadBytesInto(base, dst); err != nil || string(dst) != string(arr) {
		t.Fatalf("ReadBytesInto = %v, bytes equal %v", err, string(dst) == string(arr))
	}
	mid := len(arr)/2 + 10
	if b, err := s.LoadByte(base + Addr(mid)); err != nil || b != arr[mid] {
		t.Fatalf("LoadByte = %d, %v; want %d", b, err, arr[mid])
	}
	if r, n := s.Resident(), s.pendingViews(); r != 0 || n != 1 {
		t.Fatalf("after reads: resident = %d B, %d views pending; want 0 B, 1", r, n)
	}
	// Writing one byte a little past the middle splits the range: the
	// smaller side above it is copied in and the larger stays pending.
	if err := s.WriteBytes(base+Addr(mid), []byte{^arr[mid]}); err != nil {
		t.Fatal(err)
	}
	if r, n := s.Resident(), s.pendingViews(); r < len(arr) || n != 1 {
		t.Fatalf("after a write: resident = %d B, %d views pending; want the whole range and 1", r, n)
	}
	want := append([]byte(nil), arr...)
	want[mid] = ^arr[mid]
	if err := s.ReadBytesInto(base, dst); err != nil || string(dst) != string(want) {
		t.Fatalf("after a write: ReadBytesInto = %v, bytes equal %v", err, string(dst) == string(want))
	}
	if p, isView := s.piece(base, len(arr)); !isView || len(p) != mid || &p[0] != &arr[0] {
		t.Errorf("after a write: the first piece is view %v of %d B, want the %d B below the write", isView, len(p), mid)
	}
}
