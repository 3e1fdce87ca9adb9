package harness

import (
	"bytes"
	"fmt"
	"testing"

	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/simnet"
	"nvariant/internal/vos"
)

// TestDocumentReadBoundaries: Config 4 (N=2, W=1) serves documents on
// both sides of the 64 KiB read request byte-exact, and each costs
// ⌈size/64 KiB⌉ data reads plus the end-of-file read — counted as read
// rendezvous from nvk_syscalls_total deltas.
func TestDocumentReadBoundaries(t *testing.T) {
	const k64 = 64 << 10
	sizes := []int{0, 1, k64 - 1, k64, k64 + 1, 200 << 10}

	world, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	root := vos.CredFor(vos.Root, 0)
	if err := world.FS.MkdirAll("/var/www/bounds", 0755, root); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(sizes))
	for i, size := range sizes {
		bodies[i] = make([]byte, size)
		for j := range bodies[i] {
			bodies[i][j] = byte(j*31 + j>>8 + i)
		}
		path := fmt.Sprintf("/var/www/bounds/s%d.bin", size)
		if err := world.FS.WriteFile(path, bodies[i], 0644, root); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	reads := reg.Counter("nvk_syscalls_total", "", obs.L("call", "read"))
	spec := GroupSpec{Config: Config4UIDVariation, Workers: 1,
		Kernel: []nvkernel.Option{nvkernel.WithMetrics(nvkernel.NewMetrics(reg))}}
	h, err := StartSpecOn(world, simnet.New(0), spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := h.Client()
	for i, size := range sizes {
		before := reads.Value()
		code, body, err := cl.Get(fmt.Sprintf("/bounds/s%d.bin", size))
		if err != nil || code != 200 {
			t.Fatalf("GET %d B document = %d, %v", size, code, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Errorf("%d B document: body differs (got %d B)", size, len(body))
		}
		// The reads precede the response's send rendezvous, so they
		// are all counted once the response has arrived.
		if got, want := reads.Value()-before, uint64((size+k64-1)/k64+1); got != want {
			t.Errorf("%d B document: %v read rendezvous, want %v", size, got, want)
		}
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("server did not exit cleanly: %+v", res.Alarm)
	}
}
