package vos

import "fmt"

// World is the machine state shared by (and trusted above) all
// variants: the real filesystem and the canonical user/group database.
// Variants never see World directly — only the monitor kernel touches
// it, applying inverse reexpression at the boundary.
type World struct {
	// FS is the real filesystem.
	FS *FS
	// Users is the canonical (untransformed) user database. The files
	// /etc/passwd-<i> served to variant i contain these entries with
	// UIDs transformed by R_i (§3.4).
	Users []User
	// Groups is the canonical group database.
	Groups []Group
}

// BaseUsers returns the user set used throughout the experiments: the
// standard server cast of root, the unprivileged web server user, and
// two ordinary accounts.
func BaseUsers() []User {
	return []User{
		{Name: "root", UID: 0, GID: 0, Gecos: "root", Home: "/root", Shell: "/bin/sh"},
		{Name: "wwwrun", UID: 30, GID: 8, Gecos: "WWW daemon", Home: "/var/lib/wwwrun", Shell: "/bin/false"},
		{Name: "alice", UID: 1000, GID: 100, Gecos: "Alice", Home: "/home/alice", Shell: "/bin/sh"},
		{Name: "bob", UID: 1001, GID: 100, Gecos: "Bob", Home: "/home/bob", Shell: "/bin/sh"},
	}
}

// BaseGroups returns the group set matching BaseUsers.
func BaseGroups() []Group {
	return []Group{
		{Name: "root", GID: 0},
		{Name: "www", GID: 8, Members: []string{"wwwrun"}},
		{Name: "users", GID: 100, Members: []string{"alice", "bob"}},
	}
}

// NewWorld builds a world with the base user database and a populated
// filesystem: /etc/passwd and /etc/group, a document root with public
// pages, and a root-only /private/secret.html — the asset the UID
// corruption attack tries to steal.
func NewWorld() (*World, error) {
	w := &World{FS: NewFS(), Users: BaseUsers(), Groups: BaseGroups()}
	root := CredFor(Root, 0)

	for _, dir := range []string{"/etc", "/var/log", "/var/www", "/var/www/private", "/tmp"} {
		if err := w.FS.MkdirAll(dir, 0755, root); err != nil {
			return nil, fmt.Errorf("setup %s: %w", dir, err)
		}
	}
	if err := w.FS.WriteFile("/etc/passwd", FormatPasswd(w.Users), 0644, root); err != nil {
		return nil, fmt.Errorf("setup passwd: %w", err)
	}
	if err := w.FS.WriteFile("/etc/group", FormatGroup(w.Groups), 0644, root); err != nil {
		return nil, fmt.Errorf("setup group: %w", err)
	}

	pages := map[string]string{
		"/var/www/index.html": "<html><body><h1>It works!</h1></body></html>\n",
		"/var/www/about.html": "<html><body>About this N-variant server.</body></html>\n",
		"/var/www/logo.gif":   "GIF89a....................................\n",
		"/var/www/styles.css": "body { font-family: sans-serif; }\n",
		"/var/www/page1.html": "<html><body>page 1 " + filler(512) + "</body></html>\n",
		"/var/www/page2.html": "<html><body>page 2 " + filler(2048) + "</body></html>\n",
		"/var/www/page3.html": "<html><body>page 3 " + filler(8192) + "</body></html>\n",
	}
	for path, content := range pages {
		if err := w.FS.WriteFile(path, []byte(content), 0644, root); err != nil {
			return nil, fmt.Errorf("setup %s: %w", path, err)
		}
	}

	// The crown jewels: readable only by root. A correct server, having
	// dropped privileges, gets EACCES here; a server whose UID data has
	// been corrupted to root serves it.
	secret := "<html><body>TOP-SECRET: the root-only document.</body></html>\n"
	if err := w.FS.WriteFile("/var/www/private/secret.html", []byte(secret), 0600, root); err != nil {
		return nil, fmt.Errorf("setup secret: %w", err)
	}
	if err := w.FS.Chmod("/var/www/private", 0700, root); err != nil {
		return nil, fmt.Errorf("chmod private: %w", err)
	}
	return w, nil
}

// filler produces deterministic page padding of n bytes.
func filler(n int) string {
	b := make([]byte, n)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
	for i := range b {
		b[i] = alphabet[i%len(alphabet)]
	}
	return string(b)
}

// User looks up a user by name in the canonical database.
func (w *World) User(name string) (User, bool) { return LookupUser(w.Users, name) }
