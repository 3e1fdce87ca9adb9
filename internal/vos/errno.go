// Package vos simulates the operating-system substrate the paper's
// case study runs on: Unix credentials (UID/GID), a permission-checked
// in-memory filesystem, and the /etc/passwd and /etc/group databases
// that map user names to UIDs.
//
// The UID data type is the paper's diversification target (§3): the
// kernel-side semantics implemented here (privilege checks on setuid,
// file-permission checks against the effective UID, the special
// treatment of UID −1 in setreuid) are exactly the behaviours a UID
// corruption attack abuses and the N-variant monitor must preserve.
package vos

import "errors"

// Errno is a simulated Unix error number. Errnos cross the syscall
// boundary unchanged, so they are defined as sentinel errors that both
// kernel and programs can match on.
type Errno struct {
	// Name is the symbolic errno name (e.g. "EACCES").
	Name string
	// Msg is the human-readable description.
	Msg string
}

// Error implements the error interface.
func (e *Errno) Error() string { return e.Name + ": " + e.Msg }

// Simulated errno values.
var (
	ErrNoEnt       = &Errno{Name: "ENOENT", Msg: "no such file or directory"}
	ErrAccess      = &Errno{Name: "EACCES", Msg: "permission denied"}
	ErrPerm        = &Errno{Name: "EPERM", Msg: "operation not permitted"}
	ErrIsDir       = &Errno{Name: "EISDIR", Msg: "is a directory"}
	ErrNotDir      = &Errno{Name: "ENOTDIR", Msg: "not a directory"}
	ErrExist       = &Errno{Name: "EEXIST", Msg: "file exists"}
	ErrBadFD       = &Errno{Name: "EBADF", Msg: "bad file descriptor"}
	ErrInval       = &Errno{Name: "EINVAL", Msg: "invalid argument"}
	ErrNameTooLong = &Errno{Name: "ENAMETOOLONG", Msg: "file name too long"}
	ErrPipe        = &Errno{Name: "EPIPE", Msg: "broken pipe"}
)

// AsErrno extracts an *Errno from an error chain, if present.
func AsErrno(err error) (*Errno, bool) {
	var e *Errno
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}
