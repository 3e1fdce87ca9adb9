package sys

import (
	"errors"
	"fmt"

	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// ErrKilled is returned by syscall wrappers after the monitor has
// raised an alarm and terminated the variant group. Programs must
// propagate it so the variant unwinds promptly.
var ErrKilled = errors.New("sys: variant killed by monitor")

// ErrCrashed is returned by syscall wrappers after a chaos-injected
// variant crash. Unlike ErrKilled it is a variant fault: the monitor
// treats the unwinding variant as a crashed process and raises an
// alarm if its siblings are still healthy.
var ErrCrashed = errors.New("sys: variant crashed (injected fault)")

// Invoker executes one system call on behalf of a variant. The monitor
// kernel provides the implementation; programs never construct one.
type Invoker func(Call) Reply

// Program is the code executed identically (modulo data reexpression
// applied at build time) by every variant.
type Program interface {
	// Name identifies the program in alarm reports and logs.
	Name() string
	// Run executes the program against the syscall context. A non-nil
	// return that is not ErrKilled is treated by the monitor as a
	// variant fault (the analogue of a crash), which itself raises an
	// alarm if other variants are still healthy.
	Run(ctx *Context) error
}

// WorkerProgram is a Program that supports prefork worker lanes. After
// the primary lane calls Context.Prefork(w), the kernel runs RunWorker
// in w-1 fresh lanes — each an independent N-variant rendezvous over
// fresh per-lane address spaces — with worker being the lane index in
// [1, w). Lane 0 continues inline when Prefork returns, conventionally
// running the same loop body as worker 0. Like Run, a non-ErrKilled
// error return is a variant fault.
//
// A worker lane's memory starts empty (the simulation has no
// copy-on-write fork image): state the workers need from startup is
// carried on the program value itself, which the variant's lanes share
// — the analogue of inherited process memory, made race-free by the
// Prefork rendezvous ordering startup writes before worker reads.
type WorkerProgram interface {
	Program
	RunWorker(ctx *Context, worker int) error
}

// Context is the per-variant execution environment: the variant's
// simulated memory plus the syscall interface. It mirrors the libc
// layer of the paper's variants.
type Context struct {
	// Variant is this variant's index (0-based).
	Variant int
	// NumVariants is the group size (1 when running plain).
	NumVariants int
	// Worker is the index of the prefork worker lane this context
	// executes in (0 for the primary lane and for serial programs).
	Worker int
	// Mem is this variant's simulated address space.
	Mem *vmem.Space

	invoke  Invoker
	exited  bool
	crashed bool
	scratch vmem.Addr
	scrCap  uint32

	// argBuf backs Call.Args for the convenience wrappers so the
	// common syscall path performs zero heap allocations. Reuse is
	// safe because a variant is a single goroutine that blocks until
	// the monitor replies, and the monitor never reads a call's Args
	// after replying.
	argBuf [3]word.Word
	// dataBuf likewise backs Call.Data for path-carrying calls.
	dataBuf []byte
}

// NewContext builds a context. It is exported for the kernel and for
// tests; programs receive a ready Context.
func NewContext(variant, numVariants int, mem *vmem.Space, invoke Invoker) *Context {
	return &Context{Variant: variant, NumVariants: numVariants, Mem: mem, invoke: invoke}
}

// Exited reports whether the program has issued Exit.
func (c *Context) Exited() bool { return c.exited }

// Syscall issues a raw system call.
func (c *Context) Syscall(call Call) (word.Word, error) {
	if c.crashed {
		// A crashed variant stays dead: nothing it does reaches the
		// kernel anymore.
		return 0, fmt.Errorf("%s: %w", call.Num, ErrCrashed)
	}
	r := c.invoke(call)
	switch {
	case r.Crashed:
		c.crashed = true
		return r.Val, fmt.Errorf("%s: %w", call.Num, ErrCrashed)
	case r.Killed:
		return r.Val, fmt.Errorf("%s: %w", call.Num, ErrKilled)
	case r.Errno != nil:
		return r.Val, fmt.Errorf("%s: %w", call.Num, r.Errno)
	default:
		return r.Val, nil
	}
}

// sys0 … sys3 issue a syscall with 0–3 arguments backed by the
// context's reusable argument buffer — no per-call slice allocation.
func (c *Context) sys0(num Num) (word.Word, error) {
	return c.Syscall(Call{Num: num})
}

func (c *Context) sys1(num Num, a0 word.Word) (word.Word, error) {
	c.argBuf[0] = a0
	return c.Syscall(Call{Num: num, Args: c.argBuf[:1]})
}

func (c *Context) sys2(num Num, a0, a1 word.Word) (word.Word, error) {
	c.argBuf[0], c.argBuf[1] = a0, a1
	return c.Syscall(Call{Num: num, Args: c.argBuf[:2]})
}

func (c *Context) sys3(num Num, a0, a1, a2 word.Word) (word.Word, error) {
	c.argBuf[0], c.argBuf[1], c.argBuf[2] = a0, a1, a2
	return c.Syscall(Call{Num: num, Args: c.argBuf[:3]})
}

// pathData stages path into the context's reusable Data buffer.
func (c *Context) pathData(path string) []byte {
	c.dataBuf = append(c.dataBuf[:0], path...)
	return c.dataBuf
}

// scratchBuf returns a reusable scratch region of at least n bytes in
// variant memory, used by the string convenience wrappers.
func (c *Context) scratchBuf(n uint32) (vmem.Addr, error) {
	if n == 0 {
		n = 1
	}
	if c.scrCap < n {
		size := uint32(4096)
		for size < n {
			size *= 2
		}
		addr, err := c.Mem.Alloc(size)
		if err != nil {
			return 0, fmt.Errorf("scratch: %w", err)
		}
		c.scratch, c.scrCap = addr, size
	}
	return c.scratch, nil
}

// Exit terminates the variant group with the given status.
func (c *Context) Exit(status word.Word) error {
	if c.exited {
		return nil
	}
	_, err := c.sys1(Exit, status)
	c.exited = true
	return err
}

// Open opens path with the given flags, returning a file descriptor.
func (c *Context) Open(path string, flags vos.OpenFlag, perm vos.Mode) (int, error) {
	c.argBuf[0], c.argBuf[1] = word.Word(flags), word.Word(perm)
	v, err := c.Syscall(Call{Num: Open, Args: c.argBuf[:2], Data: c.pathData(path)})
	return int(v), err
}

// Close closes a file descriptor.
func (c *Context) Close(fd int) error {
	_, err := c.sys1(CloseFD, word.Word(fd))
	return err
}

// ReadMem reads up to n bytes from fd into variant memory at addr.
func (c *Context) ReadMem(fd int, addr vmem.Addr, n uint32) (uint32, error) {
	v, err := c.sys3(Read, word.Word(fd), addr, word.Word(n))
	return uint32(v), err
}

// WriteMem writes n bytes from variant memory at addr to fd.
func (c *Context) WriteMem(fd int, addr vmem.Addr, n uint32) (uint32, error) {
	v, err := c.sys3(Write, word.Word(fd), addr, word.Word(n))
	return uint32(v), err
}

// ReadAll reads fd to end of file and returns the contents as Go
// bytes (copied out of variant memory).
func (c *Context) ReadAll(fd int) ([]byte, error) {
	return c.ReadAllInto(fd, nil)
}

// readRequest is the count ReadAllInto asks of each read: 64 KiB, so a
// document up to that size costs one data read plus the end-of-file
// read, the way a real server hands a whole file to the kernel in one
// call. Every read is a lockstep rendezvous of all variants, so the
// request size sets how many of them a document costs.
const readRequest = 64 << 10

// ReadAllInto is ReadAll appending onto buf — pass a reused buf[:0] to
// read repeatedly without allocating (the httpd request loop does).
func (c *Context) ReadAllInto(fd int, buf []byte) ([]byte, error) {
	addr, err := c.scratchBuf(readRequest)
	if err != nil {
		return nil, err
	}
	out := buf
	for {
		n, err := c.ReadMem(fd, addr, readRequest)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		start := len(out)
		need := start + int(n)
		if cap(out) < need {
			grown := make([]byte, need, 2*need)
			copy(grown, out)
			out = grown
		} else {
			out = out[:need]
		}
		if err := c.Mem.ReadBytesInto(addr, out[start:]); err != nil {
			return nil, err
		}
	}
}

// WriteString writes s to fd via a scratch buffer in variant memory.
func (c *Context) WriteString(fd int, s string) error {
	addr, err := c.scratchBuf(uint32(len(s)))
	if err != nil {
		return err
	}
	if err := c.Mem.WriteString(addr, s); err != nil {
		return err
	}
	_, err = c.WriteMem(fd, addr, uint32(len(s)))
	return err
}

// Stat returns the size of the file at path. (File ownership is
// enforced by the kernel at open time; programs never need to read
// UIDs out of inodes, which keeps the UID target interface confined
// to the credential syscalls as in the paper.)
func (c *Context) Stat(path string) (uint32, error) {
	v, err := c.Syscall(Call{Num: Stat, Data: c.pathData(path)})
	return uint32(v), err
}

// Getuid returns the real UID in this variant's representation.
func (c *Context) Getuid() (vos.UID, error) {
	return c.sys0(Getuid)
}

// Geteuid returns the effective UID in this variant's representation.
func (c *Context) Geteuid() (vos.UID, error) {
	return c.sys0(Geteuid)
}

// Getgid returns the real GID in this variant's representation.
func (c *Context) Getgid() (vos.GID, error) {
	return c.sys0(Getgid)
}

// Getegid returns the effective GID in this variant's representation.
func (c *Context) Getegid() (vos.GID, error) {
	return c.sys0(Getegid)
}

// Setuid sets the process UID; u is in this variant's representation.
func (c *Context) Setuid(u vos.UID) error {
	_, err := c.sys1(Setuid, u)
	return err
}

// Seteuid sets the effective UID.
func (c *Context) Seteuid(u vos.UID) error {
	_, err := c.sys1(Seteuid, u)
	return err
}

// Setreuid sets real and effective UIDs (NoChange semantics apply to
// the canonical values).
func (c *Context) Setreuid(ruid, euid vos.UID) error {
	_, err := c.sys2(Setreuid, ruid, euid)
	return err
}

// Setgid sets the process GID.
func (c *Context) Setgid(g vos.GID) error {
	_, err := c.sys1(Setgid, g)
	return err
}

// Setegid sets the effective GID.
func (c *Context) Setegid(g vos.GID) error {
	_, err := c.sys1(Setegid, g)
	return err
}

// Listen binds a listening socket on port.
func (c *Context) Listen(port uint16) (int, error) {
	v, err := c.sys1(Listen, word.Word(port))
	return int(v), err
}

// Accept waits for a connection on listener fd lfd.
func (c *Context) Accept(lfd int) (int, error) {
	v, err := c.sys1(Accept, word.Word(lfd))
	return int(v), err
}

// RecvMem receives one message into variant memory at addr (capacity
// n). It returns the message length; 0 means end of stream.
func (c *Context) RecvMem(fd int, addr vmem.Addr, n uint32) (uint32, error) {
	v, err := c.sys3(Recv, word.Word(fd), addr, word.Word(n))
	return uint32(v), err
}

// SendMem transmits n bytes of variant memory at addr on fd.
func (c *Context) SendMem(fd int, addr vmem.Addr, n uint32) error {
	_, err := c.sys3(Send, word.Word(fd), addr, word.Word(n))
	return err
}

// SendBytes transmits b on fd via the scratch buffer without
// allocating, for reused response buffers.
func (c *Context) SendBytes(fd int, b []byte) error {
	addr, err := c.scratchBuf(uint32(len(b)))
	if err != nil {
		return err
	}
	if err := c.Mem.WriteBytes(addr, b); err != nil {
		return err
	}
	return c.SendMem(fd, addr, uint32(len(b)))
}

// Time returns the kernel's virtual timestamp (identical across
// variants).
func (c *Context) Time() (word.Word, error) {
	return c.sys0(Time)
}

// Prefork starts w-1 additional worker lanes running the program's
// RunWorker body and returns w. Only worker lane 0 may call it, once,
// and every variant program of the group must implement WorkerProgram.
func (c *Context) Prefork(w int) (int, error) {
	v, err := c.sys1(Prefork, word.Word(w))
	return int(v), err
}

// ScoreAdd atomically adds delta to the group-wide scoreboard counter
// and returns the new total (identical across the lane's variants).
func (c *Context) ScoreAdd(delta word.Word) (word.Word, error) {
	return c.sys1(ScoreAdd, delta)
}

// UIDValue exposes a single UID value to the monitor (Table 2):
// the kernel checks cross-variant equivalence and returns the value
// unchanged.
func (c *Context) UIDValue(u vos.UID) (vos.UID, error) {
	return c.sys1(UIDValue, u)
}

// CondChk exposes a UID-influenced condition value to the monitor
// (Table 2) and returns it.
func (c *Context) CondChk(b bool) (bool, error) {
	v, err := c.sys1(CondChk, boolWord(b))
	return v != 0, err
}

// CCEq compares two UIDs for equality under monitor supervision.
func (c *Context) CCEq(a, b vos.UID) (bool, error) { return c.cc(CCEq, a, b) }

// CCNeq compares two UIDs for inequality under monitor supervision.
func (c *Context) CCNeq(a, b vos.UID) (bool, error) { return c.cc(CCNeq, a, b) }

// CCLt compares a < b under monitor supervision.
func (c *Context) CCLt(a, b vos.UID) (bool, error) { return c.cc(CCLt, a, b) }

// CCLeq compares a ≤ b under monitor supervision.
func (c *Context) CCLeq(a, b vos.UID) (bool, error) { return c.cc(CCLeq, a, b) }

// CCGt compares a > b under monitor supervision.
func (c *Context) CCGt(a, b vos.UID) (bool, error) { return c.cc(CCGt, a, b) }

// CCGeq compares a ≥ b under monitor supervision.
func (c *Context) CCGeq(a, b vos.UID) (bool, error) { return c.cc(CCGeq, a, b) }

func (c *Context) cc(num Num, a, b vos.UID) (bool, error) {
	v, err := c.sys2(num, a, b)
	return v != 0, err
}

func boolWord(b bool) word.Word {
	if b {
		return 1
	}
	return 0
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc struct {
	// ProgName is returned by Name.
	ProgName string
	// Fn is the program body.
	Fn func(ctx *Context) error
}

var _ Program = ProgramFunc{}

// Name implements Program.
func (p ProgramFunc) Name() string { return p.ProgName }

// Run implements Program.
func (p ProgramFunc) Run(ctx *Context) error { return p.Fn(ctx) }

// WorkerProgramFunc adapts a pair of functions to WorkerProgram.
type WorkerProgramFunc struct {
	ProgramFunc
	// WorkerFn is the worker-lane body.
	WorkerFn func(ctx *Context, worker int) error
}

var _ WorkerProgram = WorkerProgramFunc{}

// RunWorker implements WorkerProgram.
func (p WorkerProgramFunc) RunWorker(ctx *Context, worker int) error { return p.WorkerFn(ctx, worker) }
