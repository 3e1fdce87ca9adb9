// Package sys defines the system-call ABI between variant programs and
// the monitor kernel.
//
// System calls are the paper's synchronization and monitoring points
// (§3.1): once one variant makes a system call, it does not proceed
// until all variants make the same call; the wrappers check argument
// equivalence, perform input operations once (replicating results),
// and perform output operations once (after cross-checking payloads).
// This package also defines the detection system calls of Table 2
// (uid_value, cond_chk, cc_eq … cc_geq) that transformed programs use
// to expose UID uses to the monitor at the point of use, and prefork,
// which starts a server's worker lanes. No call stops a group: a
// server stops when its listening socket closes, as the paper's
// launcher stops Apache by killing its process group.
package sys

import (
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Num identifies a system call.
type Num int

// System call numbers.
const (
	// Exit terminates the variant group. Args: status.
	Exit Num = iota + 1
	// Open opens a file. Data: path. Args: flags, perm. Returns fd.
	Open
	// CloseFD closes a descriptor. Args: fd.
	CloseFD
	// Read reads from a file descriptor into variant memory.
	// Args: fd, addr, len. Returns bytes read. Input class.
	Read
	// Write writes from variant memory to a descriptor.
	// Args: fd, addr, len. Returns bytes written. Output class.
	Write
	// Getuid/Geteuid/Getgid/Getegid return (reexpressed) credentials.
	Getuid
	Geteuid
	Getgid
	Getegid
	// Setuid and friends change credentials. UID-typed args.
	Setuid
	Seteuid
	Setreuid
	Setgid
	Setegid
	// Listen binds a listening socket. Args: port. Returns fd.
	Listen
	// Accept accepts a connection. Args: listener fd. Returns conn fd.
	Accept
	// Recv receives one message into variant memory. Args: fd, addr,
	// cap. Returns length (0 on end of stream). Input class.
	Recv
	// Send transmits variant memory. Args: fd, addr, len. Output class.
	Send
	// Time returns a deterministic, monotonically increasing virtual
	// timestamp — performed once, same value to all variants.
	Time

	// UIDValue is Table 2's uid_value(uid_t): the kernel checks that
	// the per-variant arguments are equivalent after inverse
	// reexpression and returns the passed value unchanged.
	UIDValue
	// CondChk is Table 2's cond_chk(bool): checks the condition value
	// is identical across variants and returns it.
	CondChk
	// CCEq … CCGeq are Table 2's two-argument UID comparisons: the
	// kernel checks equivalence of both UID args across variants, then
	// returns the truth value of the comparison computed on canonical
	// (inverse-reexpressed) values — so the variants' instruction
	// streams stay identical and no operator reversal is needed (§3.5).
	CCEq
	CCNeq
	CCLt
	CCLeq
	CCGt
	CCGeq

	// Prefork asks the monitor to start additional worker lanes — the
	// prefork-server fork(): each new lane is an independent N-variant
	// rendezvous over fresh per-lane address spaces, sharing the
	// group's descriptor table and credentials. Args: total worker
	// count W (the calling lane continues as worker 0; W-1 lanes are
	// spawned). Only worker lane 0 may prefork, exactly once.
	Prefork
)

// String names the syscall as in the paper.
func (n Num) String() string {
	if s, ok := SpecFor(n); ok {
		return s.Name
	}
	return "unknown"
}

// Class partitions syscalls by how the monitor executes them (§3.1).
type Class int

// Syscall classes.
const (
	// ClassInput syscalls are performed once; the result is replicated
	// to all variants.
	ClassInput Class = iota + 1
	// ClassOutput syscalls are checked for payload equivalence and
	// performed once.
	ClassOutput
	// ClassState syscalls mutate shared kernel state (credentials,
	// file tables) after argument equivalence checks.
	ClassState
	// ClassDetect syscalls exist purely to expose data to the monitor
	// (Table 2).
	ClassDetect
	// ClassExit terminates the group.
	ClassExit
)

// ArgKind describes how the monitor canonicalizes one argument before
// comparing it across variants.
type ArgKind int

// Argument kinds.
const (
	// ArgPlain arguments must be bit-identical across variants.
	ArgPlain ArgKind = iota + 1
	// ArgUID arguments are inverse-reexpressed with the variant's UID
	// function before comparison — the R⁻¹ at the target interpreter.
	ArgUID
	// ArgAddr arguments are variant-local addresses; the monitor
	// canonicalizes them by clearing the partition bit and compares.
	ArgAddr
	// ArgBool arguments must be identical truth values.
	ArgBool
)

// Spec describes the kernel-visible shape of a syscall.
type Spec struct {
	// Name is the syscall's name.
	Name string
	// Class selects monitor execution semantics.
	Class Class
	// Args gives the canonicalization kind of each argument.
	Args []ArgKind
	// ReturnsUID marks calls whose result is a UID that the kernel
	// reexpresses per variant before returning (getuid & co.).
	ReturnsUID bool
	// TakesPath marks calls whose Data payload is a path that must be
	// identical across variants.
	TakesPath bool
}

var specs = map[Num]Spec{
	Exit:    {Name: "exit", Class: ClassExit, Args: []ArgKind{ArgPlain}},
	Open:    {Name: "open", Class: ClassState, Args: []ArgKind{ArgPlain, ArgPlain}, TakesPath: true},
	CloseFD: {Name: "close", Class: ClassState, Args: []ArgKind{ArgPlain}},
	Read:    {Name: "read", Class: ClassInput, Args: []ArgKind{ArgPlain, ArgAddr, ArgPlain}},
	Write:   {Name: "write", Class: ClassOutput, Args: []ArgKind{ArgPlain, ArgAddr, ArgPlain}},

	Getuid:  {Name: "getuid", Class: ClassInput, ReturnsUID: true},
	Geteuid: {Name: "geteuid", Class: ClassInput, ReturnsUID: true},
	Getgid:  {Name: "getgid", Class: ClassInput, ReturnsUID: true},
	Getegid: {Name: "getegid", Class: ClassInput, ReturnsUID: true},

	Setuid:   {Name: "setuid", Class: ClassState, Args: []ArgKind{ArgUID}},
	Seteuid:  {Name: "seteuid", Class: ClassState, Args: []ArgKind{ArgUID}},
	Setreuid: {Name: "setreuid", Class: ClassState, Args: []ArgKind{ArgUID, ArgUID}},
	Setgid:   {Name: "setgid", Class: ClassState, Args: []ArgKind{ArgUID}},
	Setegid:  {Name: "setegid", Class: ClassState, Args: []ArgKind{ArgUID}},

	Listen: {Name: "listen", Class: ClassState, Args: []ArgKind{ArgPlain}},
	Accept: {Name: "accept", Class: ClassInput, Args: []ArgKind{ArgPlain}},
	Recv:   {Name: "recv", Class: ClassInput, Args: []ArgKind{ArgPlain, ArgAddr, ArgPlain}},
	Send:   {Name: "send", Class: ClassOutput, Args: []ArgKind{ArgPlain, ArgAddr, ArgPlain}},
	Time:   {Name: "time", Class: ClassInput},

	Prefork: {Name: "prefork", Class: ClassState, Args: []ArgKind{ArgPlain}},

	UIDValue: {Name: "uid_value", Class: ClassDetect, Args: []ArgKind{ArgUID}},
	CondChk:  {Name: "cond_chk", Class: ClassDetect, Args: []ArgKind{ArgBool}},
	CCEq:     {Name: "cc_eq", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
	CCNeq:    {Name: "cc_neq", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
	CCLt:     {Name: "cc_lt", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
	CCLeq:    {Name: "cc_leq", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
	CCGt:     {Name: "cc_gt", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
	CCGeq:    {Name: "cc_geq", Class: ClassDetect, Args: []ArgKind{ArgUID, ArgUID}},
}

// specTable is the dense array form of specs, indexed by Num — the
// monitor does one SpecFor per rendezvous, so the lookup should be an
// array load, not a map probe.
var specTable = func() []Spec {
	max := Num(0)
	for n := range specs {
		if n > max {
			max = n
		}
	}
	t := make([]Spec, max+1)
	for n, s := range specs {
		t[n] = s
	}
	return t
}()

// SpecFor returns the spec for a syscall number.
func SpecFor(n Num) (Spec, bool) {
	if n <= 0 || int(n) >= len(specTable) || specTable[n].Name == "" {
		return Spec{}, false
	}
	return specTable[n], true
}

// DetectionCalls lists the Table 2 syscalls in paper order.
func DetectionCalls() []Num {
	return []Num{UIDValue, CondChk, CCEq, CCNeq, CCLt, CCLeq, CCGt, CCGeq}
}

// Call is one system call as issued by a variant. Args and Data are
// borrowed from the issuing context's reusable buffers: the kernel may
// read them only until it replies to the call, never after.
type Call struct {
	// Num is the syscall number.
	Num Num
	// Args are the word-sized arguments (see Spec.Args for kinds).
	Args []word.Word
	// Data carries the path for TakesPath calls.
	Data []byte
}

// Reply is the kernel's response to a Call.
type Reply struct {
	// Val is the syscall return value.
	Val word.Word
	// Errno is the failure code, nil on success.
	Errno *vos.Errno
	// Killed reports that the monitor raised an alarm and terminated
	// the group; the variant must unwind immediately.
	Killed bool
	// Crashed reports an injected variant crash (chaos fault layer):
	// the syscall never reached the rendezvous, and every further
	// syscall from this variant fails the same way — the analogue of a
	// process dying mid-request. The monitor observes the variant's
	// death exactly as it would a real fault.
	Crashed bool
}

// Standard file descriptors.
const (
	FDStdout = 1
	FDStderr = 2
)
