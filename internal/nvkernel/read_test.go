package nvkernel

import (
	"bytes"
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

// TestReadStagingSizedToData: every ReadAllInto read asks for 64 KiB,
// but the kernel stages only the bytes left in the file, so a lane
// that serves only the stock ≤600 B documents never grows its staging
// buffer past 4 KiB.
func TestReadStagingSizedToData(t *testing.T) {
	w := newWorld(t)
	if err := httpd.SetupWorld(w); err != nil {
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
	for i, l := range s.lanes {
		if c := cap(l.ioBuf); c == 0 || c > 4<<10 {
			t.Errorf("lane %d staging capacity = %d B, want 1..4096", i, c)
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
