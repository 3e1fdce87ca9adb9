package sys

import (
	"errors"
	"testing"

	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

func TestSpecTable(t *testing.T) {
	// Every declared syscall must have a spec and a name.
	nums := []Num{
		Exit, Open, CloseFD, Read, Write,
		Getuid, Geteuid, Getgid, Getegid,
		Setuid, Seteuid, Setreuid, Setgid, Setegid,
		Listen, Accept, Recv, Send, Time,
		UIDValue, CondChk, CCEq, CCNeq, CCLt, CCLeq, CCGt, CCGeq,
	}
	for _, n := range nums {
		spec, ok := SpecFor(n)
		if !ok {
			t.Errorf("no spec for syscall %d", n)
			continue
		}
		if spec.Name == "" || spec.Class == 0 {
			t.Errorf("incomplete spec for %v: %+v", n, spec)
		}
		if n.String() != spec.Name {
			t.Errorf("String() = %q, spec name %q", n.String(), spec.Name)
		}
	}
	if Num(9999).String() != "unknown" {
		t.Error("unknown syscall name")
	}
	if _, ok := SpecFor(Num(9999)); ok {
		t.Error("spec for unknown syscall")
	}
}

func TestDetectionCallsMatchTable2(t *testing.T) {
	calls := DetectionCalls()
	want := []string{"uid_value", "cond_chk", "cc_eq", "cc_neq", "cc_lt", "cc_leq", "cc_gt", "cc_geq"}
	if len(calls) != len(want) {
		t.Fatalf("detection calls = %d, want %d", len(calls), len(want))
	}
	for i, n := range calls {
		if n.String() != want[i] {
			t.Errorf("call %d = %q, want %q", i, n.String(), want[i])
		}
		spec, _ := SpecFor(n)
		if spec.Class != ClassDetect {
			t.Errorf("%s class = %v, want detect", n, spec.Class)
		}
	}
}

func TestUIDArgKinds(t *testing.T) {
	// The UID-bearing syscalls must mark their UID argument positions
	// so the kernel applies R⁻¹ (the target interface of §3.5).
	uidCalls := map[Num]int{
		Setuid: 1, Seteuid: 1, Setreuid: 2, Setgid: 1, Setegid: 1,
		UIDValue: 1, CCEq: 2, CCNeq: 2, CCLt: 2, CCLeq: 2, CCGt: 2, CCGeq: 2,
	}
	for n, count := range uidCalls {
		spec, _ := SpecFor(n)
		got := 0
		for _, k := range spec.Args {
			if k == ArgUID {
				got++
			}
		}
		if got != count {
			t.Errorf("%s has %d UID args, want %d", n, got, count)
		}
	}
}

// fakeInvoker records calls and returns scripted replies. Like the
// real monitor, an invoker owns a call's Args/Data only until it
// replies — the wrappers reuse the context's backing buffers — so the
// recorder snapshots them before returning.
type fakeInvoker struct {
	calls   []Call
	replies []Reply
}

func (f *fakeInvoker) invoke(c Call) Reply {
	rec := c
	rec.Args = append([]word.Word(nil), c.Args...)
	rec.Data = append([]byte(nil), c.Data...)
	f.calls = append(f.calls, rec)
	if len(f.replies) == 0 {
		return Reply{}
	}
	r := f.replies[0]
	f.replies = f.replies[1:]
	return r
}

func newTestContext(f *fakeInvoker) *Context {
	return NewContext(0, 1, vmem.New(vmem.PartitionNone), f.invoke)
}

func TestContextSyscallErrors(t *testing.T) {
	f := &fakeInvoker{replies: []Reply{
		{Killed: true},
		{Errno: vos.ErrAccess},
		{Val: 42},
	}}
	ctx := newTestContext(f)

	_, err := ctx.Getuid()
	if !errors.Is(err, ErrKilled) {
		t.Errorf("killed reply error = %v, want ErrKilled", err)
	}
	_, err = ctx.Getuid()
	if e, ok := vos.AsErrno(err); !ok || e != vos.ErrAccess {
		t.Errorf("errno reply error = %v, want EACCES", err)
	}
	v, err := ctx.Getuid()
	if err != nil || v != 42 {
		t.Errorf("ok reply = (%v, %v), want (42, nil)", v, err)
	}
}

func TestContextWrappersEncodeCalls(t *testing.T) {
	f := &fakeInvoker{}
	ctx := newTestContext(f)

	if _, err := ctx.Open("/etc/passwd", vos.ReadOnly, 0644); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Setuid(30); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CCLeq(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CondChk(true); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Exit(0); err != nil {
		t.Fatal(err)
	}

	wantNums := []Num{Open, Setuid, CCLeq, CondChk, Exit}
	if len(f.calls) != len(wantNums) {
		t.Fatalf("calls = %d, want %d", len(f.calls), len(wantNums))
	}
	for i, n := range wantNums {
		if f.calls[i].Num != n {
			t.Errorf("call %d = %v, want %v", i, f.calls[i].Num, n)
		}
	}
	if string(f.calls[0].Data) != "/etc/passwd" {
		t.Errorf("open path = %q", f.calls[0].Data)
	}
	if f.calls[1].Args[0] != 30 {
		t.Errorf("setuid arg = %v", f.calls[1].Args)
	}
	if f.calls[2].Args[0] != 1 || f.calls[2].Args[1] != 2 {
		t.Errorf("cc_leq args = %v", f.calls[2].Args)
	}
	if f.calls[3].Args[0] != 1 {
		t.Errorf("cond_chk arg = %v", f.calls[3].Args)
	}
}

func TestContextExitIdempotent(t *testing.T) {
	f := &fakeInvoker{}
	ctx := newTestContext(f)
	if err := ctx.Exit(3); err != nil {
		t.Fatal(err)
	}
	if !ctx.Exited() {
		t.Error("Exited() = false after Exit")
	}
	if err := ctx.Exit(4); err != nil {
		t.Fatal(err)
	}
	if len(f.calls) != 1 {
		t.Errorf("Exit issued %d syscalls, want 1", len(f.calls))
	}
}

func TestContextMemoryHelpers(t *testing.T) {
	f := &fakeInvoker{replies: []Reply{{Val: 5}}}
	ctx := newTestContext(f)
	if err := ctx.WriteString(FDStdout, "hello"); err != nil {
		t.Fatal(err)
	}
	call := f.calls[0]
	if call.Num != Write || call.Args[0] != FDStdout || call.Args[2] != 5 {
		t.Errorf("write call = %+v", call)
	}
	// The payload must be readable from the context's memory at the
	// address passed to the kernel.
	b := make([]byte, 5)
	if err := ctx.Mem.ReadBytesInto(call.Args[1], b); err != nil || string(b) != "hello" {
		t.Errorf("scratch content = %q, %v", b, err)
	}
}

func TestProgramFunc(t *testing.T) {
	p := ProgramFunc{ProgName: "x", Fn: func(ctx *Context) error { return nil }}
	if p.Name() != "x" {
		t.Errorf("Name = %q", p.Name())
	}
	if err := p.Run(nil); err != nil {
		t.Errorf("Run = %v", err)
	}
}
