package vos

import (
	"fmt"
	"sort"
)

// Test-only FS operations: the programs never change ownership, remove
// files or list directories, but the permission model's tests do.

// ErrNotEmpty is Remove's errno for a non-empty directory.
var ErrNotEmpty = &Errno{Name: "ENOTEMPTY", Msg: "directory not empty"}

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

// FileInfo describes a file, as listed by ReadDir.
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
