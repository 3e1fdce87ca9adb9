package nvkernel

import (
	"bytes"
	"fmt"
	"testing"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// viewDocSize is the size of the documents the view tests read and
// send: several pages, in one read.
const viewDocSize = 40<<10 + 77

// viewDoc returns viewDocSize position-dependent bytes.
func viewDoc() []byte {
	b := make([]byte, viewDocSize)
	for i := range b {
		b[i] = byte(i*7 + i>>9)
	}
	return b
}

// readAndSend runs an n-variant group that accepts one connection,
// reads path in one read into variant memory (a pending view), lets
// touch change that memory, then sends what it read. It returns the
// group's result and what the client received (nil for nothing).
func readAndSend(t *testing.T, w *vos.World, n int, path string, touch func(ctx *sys.Context, buf vmem.Addr) error, opts ...Option) (*Result, []byte) {
	t.Helper()
	net, done := serveOnceIn(t, w, same(n, "viewsend", func(ctx *sys.Context) error {
		lfd, err := ctx.Listen(8080)
		if err != nil {
			return err
		}
		cfd, err := ctx.Accept(lfd)
		if err != nil {
			return err
		}
		fd, err := ctx.Open(path, vos.ReadOnly, 0)
		if err != nil {
			return err
		}
		buf, err := ctx.Mem.Alloc(sys.ReadSize)
		if err != nil {
			return err
		}
		got, err := ctx.ReadMem(fd, buf, sys.ReadSize)
		if err != nil {
			return err
		}
		if err := ctx.Close(fd); err != nil {
			return err
		}
		if err := touch(ctx, buf); err != nil {
			return err
		}
		if err := ctx.SendMem(cfd, buf, got); err != nil {
			return err
		}
		return ctx.Exit(0)
	}), 8080, opts...)
	conn, err := net.Dial(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	res := <-done
	msg, _ := conn.Recv()
	return res, msg
}

// overwriteByte has variant victim store value at body offset off, or
// the byte already there when value is negative.
func overwriteByte(victim, off, value int) func(ctx *sys.Context, buf vmem.Addr) error {
	return func(ctx *sys.Context, buf vmem.Addr) error {
		if ctx.Variant != victim {
			return nil
		}
		b, err := ctx.Mem.LoadByte(buf + vmem.Addr(off))
		if err != nil {
			return err
		}
		if value >= 0 {
			b = byte(value)
		}
		return ctx.Mem.WriteBytes(buf+vmem.Addr(off), []byte{b})
	}
}

// wantDivergence checks a data-divergence alarm at send naming variant
// and a client that received nothing.
func wantDivergence(t *testing.T, name string, res *Result, msg []byte, variant int) {
	t.Helper()
	if a := res.Alarm; a == nil || a.Reason != ReasonDataDivergence || a.Syscall != "send" || a.Variant != variant ||
		a.Detail != fmt.Sprintf("output payload differs from variant 0 (%d bytes)", viewDocSize) {
		t.Errorf("%s: alarm = %v, want data-divergence at send by variant %d", name, res.Alarm, variant)
	}
	if msg != nil {
		t.Errorf("%s: client received %d bytes, want none", name, len(msg))
	}
}

// wantServed checks a clean run that sent want.
func wantServed(t *testing.T, name string, res *Result, msg, want []byte) {
	t.Helper()
	if !res.Clean || res.Alarm != nil {
		t.Errorf("%s: clean %v, alarm %v; want a clean run", name, res.Clean, res.Alarm)
	}
	if !bytes.Equal(msg, want) {
		t.Errorf("%s: client received %d bytes, want the %d-byte document", name, len(msg), len(want))
	}
}

// TestSendViewOverwriteDiverges: the send skips comparing a body that
// every variant still holds as the file's own view, so a variant that
// overwrites one byte of that range between the read and the send must
// still be caught: data-divergence naming that variant, nothing on the
// wire. Overwriting a byte with the value it already holds changes
// nothing and raises nothing.
func TestSendViewOverwriteDiverges(t *testing.T) {
	doc := viewDoc()
	for _, n := range []int{2, 3} {
		for _, off := range []int{0, 5000, viewDocSize - 1} {
			w := newWorld(t)
			if err := w.FS.WriteFile("/tmp/doc", doc, 0644, vos.CredFor(vos.Root, 0)); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("N=%d, byte %d", n, off)
			res, msg := readAndSend(t, w, n, "/tmp/doc", overwriteByte(n-1, off, int(doc[off]^0x20)))
			wantDivergence(t, name+" changed", res, msg, n-1)

			res, msg = readAndSend(t, w, n, "/tmp/doc", overwriteByte(n-1, off, -1))
			wantServed(t, name+" rewritten unchanged", res, msg, doc)
		}
	}
}

// TestSendViewsOfDifferentFiles: variants that read different files
// (unshared, one per variant) hold views of different arrays, so the
// send compares them byte for byte: identical contents pass, one
// differing byte in one variant's file is data-divergence naming it.
func TestSendViewsOfDifferentFiles(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, differ := range []bool{false, true} {
			w := newWorld(t)
			for i := 0; i < n; i++ {
				doc := viewDoc()
				if differ && i == n-1 {
					doc[viewDocSize/2] ^= 1
				}
				if err := w.FS.WriteFile(UnsharedPath("/tmp/doc", i), doc, 0644, vos.CredFor(vos.Root, 0)); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("N=%d, differ %v", n, differ)
			res, msg := readAndSend(t, w, n, "/tmp/doc", func(*sys.Context, vmem.Addr) error { return nil }, WithUnsharedFiles("/tmp/doc"))
			if differ {
				wantDivergence(t, name, res, msg, n-1)
			} else {
				wantServed(t, name, res, msg, viewDoc())
			}
		}
	}
}

// gatherAlarm runs gatherPayloads over n variant memories that setup
// fills (each maps size bytes at addr) and returns the alarm it raised,
// nil if the payloads passed.
func gatherAlarm(t *testing.T, n, size int, setup func(i int, mem *vmem.Space, addr vmem.Addr) error) *Alarm {
	t.Helper()
	s, err := newSystem(newWorld(t), simnet.New(0), same(n, "gather", func(*sys.Context) error { return nil }), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := &lane{sys: s, msgs: make([]*callMsg, n)}
	for i := 0; i < n; i++ {
		v := &variantRT{id: i, mem: vmem.New(vmem.PartitionNone)}
		v.msg.reply = make(chan sys.Reply, 1)
		addr, err := v.mem.Alloc(uint32(size))
		if err != nil {
			t.Fatal(err)
		}
		if err := setup(i, v.mem, addr); err != nil {
			t.Fatal(err)
		}
		v.msg.call = sys.Call{Num: sys.Send, Args: []word.Word{0, addr, word.Word(size)}}
		l.variants = append(l.variants, v)
		l.msgs[i] = &v.msg
	}
	spec, _ := sys.SpecFor(sys.Send)
	if l.gatherPayloads(make([]byte, size), l.msgs, 0, spec) {
		return nil
	}
	return s.alarm
}

// TestSendViewAtOtherOffsetDiverges: a compare is skipped only for the
// very same view, same array at the same offset with the same length.
// A variant holding the same file's array one byte further on, a view
// of equal length, is compared and alarms; a variant holding the
// reference's own view passes.
func TestSendViewAtOtherOffsetDiverges(t *testing.T) {
	file := append(viewDoc(), 0xAA)
	for _, n := range []int{2, 3} {
		for _, shift := range []int{0, 1} {
			a := gatherAlarm(t, n, viewDocSize, func(i int, mem *vmem.Space, addr vmem.Addr) error {
				from := 0
				if i == n-1 {
					from = shift
				}
				return mem.WriteView(addr, file[from:from+viewDocSize])
			})
			switch {
			case shift == 0 && a != nil:
				t.Errorf("N=%d, same view: alarm %v, want none", n, a)
			case shift == 1 && (a == nil || a.Reason != ReasonDataDivergence || a.Variant != n-1):
				t.Errorf("N=%d, view one byte further on: alarm %v, want data-divergence by variant %d", n, a, n-1)
			}
		}
	}
}
