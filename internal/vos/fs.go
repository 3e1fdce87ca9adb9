package vos

import (
	"fmt"
	"sort"
	"strings"
)

// Mode holds Unix permission bits plus a directory flag.
type Mode uint16

// Mode bits.
const (
	ModeDir Mode = 1 << 15

	permUserRead   Mode = 0400
	permUserWrite  Mode = 0200
	permGroupRead  Mode = 0040
	permGroupWrite Mode = 0020
	permOtherRead  Mode = 0004
	permOtherWrite Mode = 0002
)

// Perm returns the permission bits of the mode.
func (m Mode) Perm() Mode { return m & 0777 }

// IsDir reports whether the mode describes a directory.
func (m Mode) IsDir() bool { return m&ModeDir != 0 }

// String renders the mode as e.g. "d0755" or "-0644".
func (m Mode) String() string {
	kind := "-"
	if m.IsDir() {
		kind = "d"
	}
	return fmt.Sprintf("%s%04o", kind, uint16(m.Perm()))
}

// OpenFlag selects the access mode for Open.
type OpenFlag int

// Open flags (combinable with bitwise or, as in open(2)).
const (
	ReadOnly  OpenFlag = 0x1
	WriteOnly OpenFlag = 0x2
	ReadWrite OpenFlag = ReadOnly | WriteOnly
	Create    OpenFlag = 0x4
	Truncate  OpenFlag = 0x8
	Append    OpenFlag = 0x10
)

// FileInfo describes a file, as returned by Stat.
type FileInfo struct {
	// Name is the final path element.
	Name string
	// Size is the file length in bytes (0 for directories).
	Size int64
	// Mode holds type and permission bits.
	Mode Mode
	// Owner is the owning UID.
	Owner UID
	// Group is the owning GID.
	Group GID
}

type inode struct {
	name     string
	mode     Mode
	owner    UID
	group    GID
	data     []byte
	children map[string]*inode
}

// FS is an in-memory Unix-like filesystem with ownership and
// permission checks. It is not safe for concurrent use; the kernel
// serializes access (the monitor executes one syscall rendezvous at a
// time, exactly as the paper's wrapped kernel does).
type FS struct {
	root *inode
}

// NewFS returns a filesystem containing only a root directory owned by
// root with mode 0755.
func NewFS() *FS {
	return &FS{root: &inode{
		name:     "/",
		mode:     ModeDir | 0755,
		owner:    Root,
		children: make(map[string]*inode),
	}}
}

// splitPath normalizes an absolute path into its elements, appended
// to dst[:0] — lookup passes a stack array, so resolving a path
// allocates nothing. ".." is resolved lexically: it drops the previous
// element without checking that it exists or may be searched.
func splitPath(dst []string, path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("path %q: %w (must be absolute)", path, ErrInval)
	}
	if len(path) > 4096 {
		return nil, fmt.Errorf("path: %w", ErrNameTooLong)
	}
	parts := dst[:0]
	for rest := path; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, "/")
		switch p {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// canRead reports whether cred may read a file with the given
// ownership and mode. The superuser bypasses permission checks —
// which is precisely why forging EUID 0 is worth an attacker's while.
func canRead(cred Cred, owner UID, group GID, mode Mode) bool {
	switch {
	case cred.EUID == Root:
		return true
	case cred.EUID == owner:
		return mode&permUserRead != 0
	case cred.EGID == group:
		return mode&permGroupRead != 0
	default:
		return mode&permOtherRead != 0
	}
}

func canWrite(cred Cred, owner UID, group GID, mode Mode) bool {
	switch {
	case cred.EUID == Root:
		return true
	case cred.EUID == owner:
		return mode&permUserWrite != 0
	case cred.EGID == group:
		return mode&permGroupWrite != 0
	default:
		return mode&permOtherWrite != 0
	}
}

// lookup walks to the inode for path. Directory execute (search)
// permission is approximated by read permission to keep the model
// small.
func (fs *FS) lookup(path string, cred Cred) (*inode, error) {
	var buf [16]string
	parts, err := splitPath(buf[:0], path)
	if err != nil {
		return nil, err
	}
	node := fs.root
	for _, p := range parts {
		if !node.mode.IsDir() {
			return nil, fmt.Errorf("%s: %w", path, ErrNotDir)
		}
		if !canRead(cred, node.owner, node.group, node.mode) {
			return nil, fmt.Errorf("%s: %w", path, ErrAccess)
		}
		child, ok := node.children[p]
		if !ok {
			return nil, fmt.Errorf("%s: %w", path, ErrNoEnt)
		}
		node = child
	}
	return node, nil
}

// lookupParent returns the parent directory inode and final element.
func (fs *FS) lookupParent(path string, cred Cred) (*inode, string, error) {
	parts, err := splitPath(nil, path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%s: %w", path, ErrInval)
	}
	dirParts := parts[:len(parts)-1]
	node := fs.root
	for _, p := range dirParts {
		if !node.mode.IsDir() {
			return nil, "", fmt.Errorf("%s: %w", path, ErrNotDir)
		}
		if !canRead(cred, node.owner, node.group, node.mode) {
			return nil, "", fmt.Errorf("%s: %w", path, ErrAccess)
		}
		child, ok := node.children[p]
		if !ok {
			return nil, "", fmt.Errorf("%s: %w", path, ErrNoEnt)
		}
		node = child
	}
	if !node.mode.IsDir() {
		return nil, "", fmt.Errorf("%s: %w", path, ErrNotDir)
	}
	return node, parts[len(parts)-1], nil
}

// Mkdir creates a directory owned by the caller.
func (fs *FS) Mkdir(path string, perm Mode, cred Cred) error {
	parent, name, err := fs.lookupParent(path, cred)
	if err != nil {
		return err
	}
	if !canWrite(cred, parent.owner, parent.group, parent.mode) {
		return fmt.Errorf("mkdir %s: %w", path, ErrAccess)
	}
	if _, exists := parent.children[name]; exists {
		return fmt.Errorf("mkdir %s: %w", path, ErrExist)
	}
	parent.children[name] = &inode{
		name:     name,
		mode:     ModeDir | perm.Perm(),
		owner:    cred.EUID,
		group:    cred.EGID,
		children: make(map[string]*inode),
	}
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string, perm Mode, cred Cred) error {
	parts, err := splitPath(nil, path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := fs.Mkdir(cur, perm, cred); err != nil {
			if e, ok := AsErrno(err); ok && e == ErrExist {
				continue
			}
			return err
		}
	}
	return nil
}

// WriteFile creates (or truncates) a file with the given contents.
func (fs *FS) WriteFile(path string, data []byte, perm Mode, cred Cred) error {
	f, err := fs.Open(path, WriteOnly|Create|Truncate, perm, cred)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads the whole file at path.
func (fs *FS) ReadFile(path string, cred Cred) ([]byte, error) {
	f, err := fs.Open(path, ReadOnly, 0, cred)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := make([]byte, len(f.node.data))
	n, err := f.Read(out)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

// Open opens path. perm is used only when Create makes a new file.
func (fs *FS) Open(path string, flags OpenFlag, perm Mode, cred Cred) (*OpenFile, error) {
	node, err := fs.lookup(path, cred)
	if err != nil {
		if e, ok := AsErrno(err); ok && e == ErrNoEnt && flags&Create != 0 {
			return fs.create(path, flags, perm, cred)
		}
		return nil, err
	}
	if node.mode.IsDir() {
		if flags&WriteOnly != 0 {
			return nil, fmt.Errorf("open %s: %w", path, ErrIsDir)
		}
		return nil, fmt.Errorf("open %s: %w", path, ErrIsDir)
	}
	if flags&ReadOnly != 0 && !canRead(cred, node.owner, node.group, node.mode) {
		return nil, fmt.Errorf("open %s: %w", path, ErrAccess)
	}
	if flags&WriteOnly != 0 && !canWrite(cred, node.owner, node.group, node.mode) {
		return nil, fmt.Errorf("open %s: %w", path, ErrAccess)
	}
	if flags&Truncate != 0 {
		node.data = nil
	}
	f := &OpenFile{node: node, path: path, flags: flags}
	if flags&Append != 0 {
		f.offset = int64(len(node.data))
	}
	return f, nil
}

func (fs *FS) create(path string, flags OpenFlag, perm Mode, cred Cred) (*OpenFile, error) {
	parent, name, err := fs.lookupParent(path, cred)
	if err != nil {
		return nil, err
	}
	if !canWrite(cred, parent.owner, parent.group, parent.mode) {
		return nil, fmt.Errorf("create %s: %w", path, ErrAccess)
	}
	node := &inode{name: name, mode: perm.Perm(), owner: cred.EUID, group: cred.EGID}
	parent.children[name] = node
	return &OpenFile{node: node, path: path, flags: flags}, nil
}

// Stat returns file metadata.
func (fs *FS) Stat(path string, cred Cred) (FileInfo, error) {
	node, err := fs.lookup(path, cred)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{
		Name:  node.name,
		Size:  int64(len(node.data)),
		Mode:  node.mode,
		Owner: node.owner,
		Group: node.group,
	}, nil
}

// Chown changes ownership; only root may do so.
func (fs *FS) Chown(path string, owner UID, group GID, cred Cred) error {
	node, err := fs.lookup(path, cred)
	if err != nil {
		return err
	}
	if cred.EUID != Root {
		return fmt.Errorf("chown %s: %w", path, ErrPerm)
	}
	node.owner, node.group = owner, group
	return nil
}

// Chmod changes permission bits; only root or the owner may do so.
func (fs *FS) Chmod(path string, perm Mode, cred Cred) error {
	node, err := fs.lookup(path, cred)
	if err != nil {
		return err
	}
	if cred.EUID != Root && cred.EUID != node.owner {
		return fmt.Errorf("chmod %s: %w", path, ErrPerm)
	}
	node.mode = (node.mode & ModeDir) | perm.Perm()
	return nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(path string, cred Cred) error {
	parent, name, err := fs.lookupParent(path, cred)
	if err != nil {
		return err
	}
	node, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("remove %s: %w", path, ErrNoEnt)
	}
	if !canWrite(cred, parent.owner, parent.group, parent.mode) {
		return fmt.Errorf("remove %s: %w", path, ErrAccess)
	}
	if node.mode.IsDir() && len(node.children) > 0 {
		return fmt.Errorf("remove %s: %w", path, ErrNotEmpty)
	}
	delete(parent.children, name)
	return nil
}

// ReadDir lists directory entries in name order.
func (fs *FS) ReadDir(path string, cred Cred) ([]FileInfo, error) {
	node, err := fs.lookup(path, cred)
	if err != nil {
		return nil, err
	}
	if !node.mode.IsDir() {
		return nil, fmt.Errorf("readdir %s: %w", path, ErrNotDir)
	}
	if !canRead(cred, node.owner, node.group, node.mode) {
		return nil, fmt.Errorf("readdir %s: %w", path, ErrAccess)
	}
	names := make([]string, 0, len(node.children))
	for name := range node.children {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]FileInfo, 0, len(names))
	for _, name := range names {
		c := node.children[name]
		infos = append(infos, FileInfo{
			Name:  c.name,
			Size:  int64(len(c.data)),
			Mode:  c.mode,
			Owner: c.owner,
			Group: c.group,
		})
	}
	return infos, nil
}

// Exists reports whether path resolves (using root credentials, for
// test and setup convenience).
func (fs *FS) Exists(path string) bool {
	_, err := fs.lookup(path, CredFor(Root, 0))
	return err == nil
}

// OpenFile is an open file description: an inode reference plus an
// offset. Multiple descriptors (across variants, for shared files) may
// reference the same OpenFile, sharing the offset — matching the
// paper's shared-file semantics where one variant performs the I/O.
type OpenFile struct {
	node   *inode
	path   string
	flags  OpenFlag
	offset int64
	closed bool
}

// Path returns the path the file was opened with.
func (f *OpenFile) Path() string { return f.path }

// Size returns the current file size.
func (f *OpenFile) Size() int64 { return int64(len(f.node.data)) }

// Remaining returns the bytes between the current offset and the end
// of the file: the most the next Read can return.
func (f *OpenFile) Remaining() int64 {
	if left := int64(len(f.node.data)) - f.offset; left > 0 {
		return left
	}
	return 0
}

// Read reads up to len(p) bytes at the current offset. At end of file
// it returns 0, nil (Unix read semantics rather than io.EOF, since
// programs observe the syscall return value).
func (f *OpenFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("read %s: %w", f.path, ErrBadFD)
	}
	if f.flags&ReadOnly == 0 {
		return 0, fmt.Errorf("read %s: %w", f.path, ErrBadFD)
	}
	if f.offset >= int64(len(f.node.data)) {
		return 0, nil
	}
	n := copy(p, f.node.data[f.offset:])
	f.offset += int64(n)
	return n, nil
}

// Write writes p at the current offset, extending the file as needed.
func (f *OpenFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("write %s: %w", f.path, ErrBadFD)
	}
	if f.flags&WriteOnly == 0 {
		return 0, fmt.Errorf("write %s: %w", f.path, ErrBadFD)
	}
	end := f.offset + int64(len(p))
	if end > int64(len(f.node.data)) {
		grown := make([]byte, end)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	copy(f.node.data[f.offset:], p)
	f.offset = end
	return len(p), nil
}

// Close marks the description closed.
func (f *OpenFile) Close() error {
	if f.closed {
		return fmt.Errorf("close %s: %w", f.path, ErrBadFD)
	}
	f.closed = true
	return nil
}
