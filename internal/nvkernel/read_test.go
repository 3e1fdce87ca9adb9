package nvkernel

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/obs"
	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// stockSmallURIs are the stock documents of vos.NewWorld no larger
// than 600 bytes.
var stockSmallURIs = []string{"/index.html", "/about.html", "/logo.gif", "/styles.css", "/page1.html"}

// TestReadStagingSizedToData: httpd's document reads ask for up to
// 64 KiB, but a lane that serves only the stock ≤600 B documents stays
// small. Reads copy from the file straight into variant memory, so no
// read grows the lane's ioBuf (only the error-log writes use it), and
// each variant's backing store — its response region included — covers
// only the bytes touched, at most 4 KiB, not the region's 64 KiB.
func TestReadStagingSizedToData(t *testing.T) {
	w := newWorld(t)
	if err := httpd.SetupWorldAt(w, httpd.DefaultPort); err != nil {
		t.Fatal(err)
	}
	root := vos.CredFor(vos.Root, 0)
	for _, uri := range stockSmallURIs {
		body, err := w.FS.ReadFile("/var/www"+uri, root)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 600 {
			t.Fatalf("stock document %s is %d B, want ≤ 600", uri, len(body))
		}
	}
	progs, err := httpd.BuildVariants(httpd.DefaultOptions(), []reexpress.Func{reexpress.Identity{}, reexpress.Identity{}})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(0)
	s, err := newSystem(w, net, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() { done <- s.run() }()

	c := httpd.NewClient(net, httpd.DefaultPort)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 3*len(stockSmallURIs); i++ {
		uri := stockSmallURIs[i%len(stockSmallURIs)]
		code, _, err := c.Get(uri)
		for err != nil && i == 0 && time.Now().Before(deadline) {
			// The first request also waits for the listener.
			time.Sleep(200 * time.Microsecond)
			code, _, err = c.Get(uri)
		}
		if err != nil || code != 200 {
			t.Fatalf("GET %s = %d, %v", uri, code, err)
		}
	}
	_ = net.ShutdownPort(httpd.DefaultPort)
	res := <-done
	if !res.Clean {
		t.Fatalf("server did not exit cleanly: %+v", res.Alarm)
	}
	cfg, err := httpd.ParseConfig(httpd.ConfigFileForPort(httpd.DefaultPort))
	if err != nil {
		t.Fatal(err)
	}
	errLog, err := w.FS.ReadFile(cfg.ErrorLog, root)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, line := range bytes.SplitAfter(errLog, []byte("\n")) {
		longest = max(longest, len(line))
	}
	for i, l := range s.lanes {
		if c := cap(l.ioBuf); c > longest {
			t.Errorf("lane %d ioBuf capacity = %d B, more than the longest error-log line (%d B)", i, c, longest)
		}
		for j, v := range l.variants {
			if r := v.mem.Resident(); r > 4<<10 {
				t.Errorf("lane %d variant %d backing store = %d B, want ≤ 4096", i, j, r)
			}
		}
	}
}

// TestUnsharedReadPast64KiB: per-variant files larger than one 64 KiB
// read request, whose contents and lengths differ across variants,
// reach each variant byte-exact in the same number of reads and raise
// no alarm.
func TestUnsharedReadPast64KiB(t *testing.T) {
	w := newWorld(t)
	root := vos.CredFor(vos.Root, 0)
	want := [][]byte{make([]byte, 100<<10), make([]byte, 110<<10)}
	for i, b := range want {
		for j := range b {
			b[j] = byte(j*7 + i*13 + j>>9)
		}
		if err := w.FS.WriteFile(UnsharedPath("/tmp/big", i), b, 0644, root); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	res := mustRun(t, w, same(2, "bigread", func(ctx *sys.Context) error {
		fd, err := ctx.Open("/tmp/big", vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		if !bytes.Equal(data, want[ctx.Variant]) {
			return ctx.Exit(word.Word(10 + ctx.Variant))
		}
		return ctx.Exit(0)
	}), WithUnsharedFiles("/tmp/big"), WithMetrics(NewMetrics(reg)))
	if !res.Clean || res.Status != 0 || res.Alarm != nil {
		t.Fatalf("status=%d alarm=%v", res.Status, res.Alarm)
	}
	// 64 KiB, the rest, end of file — for both lengths.
	if got := reg.Counter("nvk_syscalls_total", "", obs.L("call", "read")).Value(); got != 3 {
		t.Errorf("read rendezvous = %v, want 3", got)
	}
}

// TestSharedReadWhileRewritten: in a W=2 group, lane 0 reads a shared
// file in a loop while lane 1 overwrites it in place with other bytes
// of the same length. The kernel copies a shared read into variant
// memory after dropping its lock, from a view of the file's bytes, so
// every read must return the file all-old or all-new, never a mix.
// Run it under -race too: a write that edited the viewed bytes in place
// would race with that copy.
func TestSharedReadWhileRewritten(t *testing.T) {
	const (
		path  = "/tmp/flip"
		size  = 40 << 10
		iters = 200
	)
	w := newWorld(t)
	versions := []string{strings.Repeat("a", size), strings.Repeat("b", size)}
	if err := w.FS.WriteFile(path, []byte(versions[0]), 0644, vos.CredFor(vos.Root, 0)); err != nil {
		t.Fatal(err)
	}
	p := sys.WorkerProgramFunc{
		ProgramFunc: sys.ProgramFunc{ProgName: "flip", Fn: func(ctx *sys.Context) error {
			if _, err := ctx.Prefork(2); err != nil {
				return err
			}
			return readLoop(ctx, path, versions, iters)
		}},
		WorkerFn: func(ctx *sys.Context, worker int) error {
			for k := 0; k < iters; k++ {
				fd, err := ctx.Open(path, vos.WriteOnly, 0)
				if err != nil {
					return err
				}
				if err := ctx.WriteString(fd, versions[(k+1)%2]); err != nil {
					return err
				}
				if err := ctx.Close(fd); err != nil {
					return err
				}
			}
			return ctx.Exit(0)
		},
	}
	res := mustRun(t, w, []sys.Program{p, p})
	if !res.Clean || res.Alarm != nil || res.Status != 0 {
		t.Fatalf("status=%d alarm=%v: a read returned a torn or short file", res.Status, res.Alarm)
	}
}

// readLoop reads path whole iters times and exits 1 unless every read
// returned exactly one of versions.
func readLoop(ctx *sys.Context, path string, versions []string, iters int) error {
	for k := 0; k < iters; k++ {
		fd, err := ctx.Open(path, vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.ReadAll(fd)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		if !slices.Contains(versions, string(data)) {
			return ctx.Exit(1)
		}
	}
	return ctx.Exit(0)
}
