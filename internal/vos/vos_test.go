package vos

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func root() Cred { return CredFor(Root, 0) }

func TestCredForInitialState(t *testing.T) {
	c := CredFor(1000, 100)
	if c.RUID != 1000 || c.EUID != 1000 || c.SUID != 1000 {
		t.Errorf("uids = %v", c)
	}
	if c.RGID != 100 || c.EGID != 100 || c.SGID != 100 {
		t.Errorf("gids = %v", c)
	}
}

func TestSetuidAsRootDropsAll(t *testing.T) {
	c := root()
	if err := c.Setuid(30); err != nil {
		t.Fatalf("Setuid: %v", err)
	}
	if c.RUID != 30 || c.EUID != 30 || c.SUID != 30 {
		t.Errorf("after setuid(30): %v", c)
	}
	// Having dropped all three UIDs, the process cannot regain root.
	if err := c.Setuid(0); err == nil {
		t.Error("setuid(0) after full drop succeeded; want EPERM")
	}
}

func TestSeteuidTemporaryDrop(t *testing.T) {
	// The Apache pattern: keep SUID 0, drop EUID, re-escalate later.
	c := root()
	if err := c.Setreuid(NoChange, 30); err != nil {
		t.Fatalf("Setreuid: %v", err)
	}
	if c.EUID != 30 || c.RUID != 0 {
		t.Errorf("after temporary drop: %v", c)
	}
	if err := c.Seteuid(0); err != nil {
		t.Errorf("re-escalation via ruid failed: %v", err)
	}
	if c.EUID != 0 {
		t.Errorf("after re-escalation: %v", c)
	}
}

func TestSetuidUnprivileged(t *testing.T) {
	c := CredFor(1000, 100)
	if err := c.Setuid(1001); err == nil {
		t.Error("unprivileged setuid to foreign uid succeeded")
	}
	if err := c.Setuid(1000); err != nil {
		t.Errorf("setuid to own ruid failed: %v", err)
	}
}

func TestSetreuidNoChange(t *testing.T) {
	c := CredFor(1000, 100)
	if err := c.Setreuid(NoChange, NoChange); err != nil {
		t.Fatalf("Setreuid(-1,-1): %v", err)
	}
	if c.RUID != 1000 || c.EUID != 1000 {
		t.Errorf("Setreuid(-1,-1) changed creds: %v", c)
	}
}

func TestSetreuidSwapsSaved(t *testing.T) {
	c := root()
	if err := c.Setreuid(30, 30); err != nil {
		t.Fatalf("Setreuid: %v", err)
	}
	if c.SUID != 30 {
		t.Errorf("SUID = %s, want 30", c.SUID.Decimal())
	}
}

func TestSetreuidUnprivilegedRejected(t *testing.T) {
	c := CredFor(1000, 100)
	if err := c.Setreuid(0, 0); err == nil {
		t.Error("unprivileged setreuid(0,0) succeeded")
	}
}

func TestSetgidSemantics(t *testing.T) {
	c := root()
	if err := c.Setgid(8); err != nil {
		t.Fatalf("Setgid: %v", err)
	}
	if c.RGID != 8 || c.EGID != 8 || c.SGID != 8 {
		t.Errorf("after setgid(8): %v", c)
	}
	u := CredFor(1000, 100)
	if err := u.Setgid(8); err == nil {
		t.Error("unprivileged setgid to foreign gid succeeded")
	}
	if err := u.Setegid(100); err != nil {
		t.Errorf("setegid to own gid failed: %v", err)
	}
}

func TestCredString(t *testing.T) {
	c := CredFor(30, 8)
	s := c.String()
	if !strings.Contains(s, "uid=30") || !strings.Contains(s, "egid=8") {
		t.Errorf("String() = %q", s)
	}
}

func TestPasswdRoundTrip(t *testing.T) {
	users := BaseUsers()
	parsed, err := ParsePasswd(FormatPasswd(users))
	if err != nil {
		t.Fatalf("ParsePasswd: %v", err)
	}
	if len(parsed) != len(users) {
		t.Fatalf("parsed %d users, want %d", len(parsed), len(users))
	}
	for i := range users {
		if parsed[i] != users[i] {
			t.Errorf("user %d = %+v, want %+v", i, parsed[i], users[i])
		}
	}
}

func TestParsePasswdSkipsCommentsAndBlank(t *testing.T) {
	data := []byte("# comment\n\nroot:x:0:0:root:/root:/bin/sh\n")
	users, err := ParsePasswd(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0].Name != "root" {
		t.Errorf("users = %+v", users)
	}
}

func TestParsePasswdErrors(t *testing.T) {
	cases := []string{
		"root:x:0:0:root:/root\n",         // 6 fields
		"root:x:zero:0:root:/root:/bin\n", // bad uid
		"root:x:0:zero:root:/root:/bin\n", // bad gid
	}
	for _, c := range cases {
		if _, err := ParsePasswd([]byte(c)); err == nil {
			t.Errorf("ParsePasswd(%q) succeeded, want error", c)
		}
	}
}

func TestGroupRoundTrip(t *testing.T) {
	groups := BaseGroups()
	parsed, err := ParseGroup(FormatGroup(groups))
	if err != nil {
		t.Fatalf("ParseGroup: %v", err)
	}
	if len(parsed) != len(groups) {
		t.Fatalf("parsed %d groups, want %d", len(parsed), len(groups))
	}
	for i := range groups {
		if parsed[i].Name != groups[i].Name || parsed[i].GID != groups[i].GID {
			t.Errorf("group %d = %+v, want %+v", i, parsed[i], groups[i])
		}
		if strings.Join(parsed[i].Members, ",") != strings.Join(groups[i].Members, ",") {
			t.Errorf("group %d members = %v, want %v", i, parsed[i].Members, groups[i].Members)
		}
	}
}

func TestParseGroupErrors(t *testing.T) {
	if _, err := ParseGroup([]byte("www:x:8\n")); err == nil {
		t.Error("short group line accepted")
	}
	if _, err := ParseGroup([]byte("www:x:eight:\n")); err == nil {
		t.Error("bad gid accepted")
	}
}

func TestLookups(t *testing.T) {
	users, groups := BaseUsers(), BaseGroups()
	if u, ok := LookupUser(users, "wwwrun"); !ok || u.UID != 30 {
		t.Errorf("LookupUser(wwwrun) = %+v, %v", u, ok)
	}
	if _, ok := LookupUser(users, "mallory"); ok {
		t.Error("LookupUser(mallory) found")
	}
	if u, ok := LookupUID(users, 1000); !ok || u.Name != "alice" {
		t.Errorf("LookupUID(1000) = %+v, %v", u, ok)
	}
	if _, ok := LookupUID(users, 9999); ok {
		t.Error("LookupUID(9999) found")
	}
	if g, ok := LookupGroup(groups, "www"); !ok || g.GID != 8 {
		t.Errorf("LookupGroup(www) = %+v, %v", g, ok)
	}
	if _, ok := LookupGroup(groups, "nogroup"); ok {
		t.Error("LookupGroup(nogroup) found")
	}
}

func TestFSWriteReadFile(t *testing.T) {
	fs := NewFS()
	if err := fs.MkdirAll("/a/b/c", 0755, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/f.txt", []byte("data"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/c/f.txt", root())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Errorf("ReadFile = %q", got)
	}
}

func TestFSPermissionDenied(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/secret", []byte("s"), 0600, root()); err != nil {
		t.Fatal(err)
	}
	user := CredFor(1000, 100)
	_, err := fs.ReadFile("/secret", user)
	if e, ok := AsErrno(err); !ok || e != ErrAccess {
		t.Errorf("ReadFile as user = %v, want EACCES", err)
	}
	// Root bypasses.
	if _, err := fs.ReadFile("/secret", root()); err != nil {
		t.Errorf("ReadFile as root: %v", err)
	}
}

func TestFSGroupPermissions(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/shared", []byte("s"), 0640, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown("/shared", 0, 8, root()); err != nil {
		t.Fatal(err)
	}
	member := CredFor(30, 8)
	if _, err := fs.ReadFile("/shared", member); err != nil {
		t.Errorf("group member read: %v", err)
	}
	outsider := CredFor(1000, 100)
	if _, err := fs.ReadFile("/shared", outsider); err == nil {
		t.Error("outsider read succeeded")
	}
}

func TestFSDirectorySearchPermission(t *testing.T) {
	fs := NewFS()
	if err := fs.MkdirAll("/locked", 0700, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/locked/f", []byte("x"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	user := CredFor(1000, 100)
	if _, err := fs.ReadFile("/locked/f", user); err == nil {
		t.Error("read through 0700 root dir succeeded for user")
	}
}

func TestFSErrnos(t *testing.T) {
	fs := NewFS()
	if _, err := fs.ReadFile("/nope", root()); !errnoIs(err, ErrNoEnt) {
		t.Errorf("missing file: %v, want ENOENT", err)
	}
	if err := fs.Mkdir("/d", 0755, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d", 0755, root()); !errnoIs(err, ErrExist) {
		t.Errorf("duplicate mkdir: %v, want EEXIST", err)
	}
	if _, err := fs.Open("/d", ReadOnly, 0, root()); !errnoIs(err, ErrIsDir) {
		t.Errorf("open dir: %v, want EISDIR", err)
	}
	if err := fs.WriteFile("/d/f", []byte("x"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/d/f/sub", root()); !errnoIs(err, ErrNotDir) {
		t.Errorf("file as dir: %v, want ENOTDIR", err)
	}
	if _, err := fs.ReadFile("relative", root()); !errnoIs(err, ErrInval) {
		t.Errorf("relative path: %v, want EINVAL", err)
	}
}

// TestFSPathResolution pins how paths resolve: empty and "." elements
// vanish, and ".." is lexical — /missing/../index.html reaches
// /index.html without looking up (or needing search permission on)
// missing.
func TestFSPathResolution(t *testing.T) {
	fs := NewFS()
	if err := fs.MkdirAll("/www/docs", 0755, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/index.html", []byte("top"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/www/docs/index.html", []byte("docs"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/locked", 0700, root()); err != nil {
		t.Fatal(err)
	}
	user := CredFor(1000, 100)
	for _, tc := range []struct {
		path, want string
		parts      []string
	}{
		{"/missing/../index.html", "top", []string{"index.html"}},
		{"/locked/../index.html", "top", []string{"index.html"}},
		{"/www/./docs/index.html", "docs", []string{"www", "docs", "index.html"}},
		{"//www//docs//index.html", "docs", []string{"www", "docs", "index.html"}},
		{"/www/docs/../../index.html", "top", []string{"index.html"}},
		{"/../../index.html", "top", []string{"index.html"}},
		{"/www/docs/index.html/", "docs", []string{"www", "docs", "index.html"}},
	} {
		got, err := splitPath(nil, tc.path)
		if err != nil || strings.Join(got, "|") != strings.Join(tc.parts, "|") {
			t.Errorf("splitPath(%q) = %q, %v; want %q", tc.path, got, err, tc.parts)
		}
		data, err := fs.ReadFile(tc.path, user)
		if err != nil || string(data) != tc.want {
			t.Errorf("ReadFile(%q) = %q, %v; want %q", tc.path, data, err, tc.want)
		}
	}
	for _, p := range []string{"/", "//", "/./", "/.."} {
		if got, err := splitPath(nil, p); err != nil || len(got) != 0 {
			t.Errorf("splitPath(%q) = %q, %v; want the root", p, got, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = fs.lookup("/www/docs/index.html", user)
	}); allocs != 0 {
		t.Errorf("lookup: %.0f allocs, want 0", allocs)
	}
}

func errnoIs(err error, want *Errno) bool {
	e, ok := AsErrno(err)
	return ok && e == want
}

func TestFSRemove(t *testing.T) {
	fs := NewFS()
	if err := fs.MkdirAll("/d/sub", 0755, root()); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d", root()); !errnoIs(err, ErrNotEmpty) {
		t.Errorf("remove non-empty: %v, want ENOTEMPTY", err)
	}
	if err := fs.Remove("/d/sub", root()); err != nil {
		t.Errorf("remove empty dir: %v", err)
	}
	if err := fs.Remove("/d", root()); err != nil {
		t.Errorf("remove now-empty dir: %v", err)
	}
	if err := fs.Remove("/gone", root()); !errnoIs(err, ErrNoEnt) {
		t.Errorf("remove missing: %v, want ENOENT", err)
	}
}

func TestFSReadDirSorted(t *testing.T) {
	fs := NewFS()
	for _, f := range []string{"/z", "/a", "/m"} {
		if err := fs.WriteFile(f, []byte("x"), 0644, root()); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.ReadDir("/", root())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name)
	}
	if strings.Join(names, ",") != "a,m,z" {
		t.Errorf("ReadDir order = %v", names)
	}
}

func TestFSAppendAndOffsets(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/log", []byte("one\n"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/log", WriteOnly|Append, 0, root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/log", root())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\ntwo\n" {
		t.Errorf("log = %q", got)
	}
}

func TestOpenFileModes(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/f", []byte("abc"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f", ReadOnly, 0, root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("x")); !errnoIs(err, ErrBadFD) {
		t.Errorf("write on read-only fd: %v, want EBADF", err)
	}
	w, err := fs.Open("/f", WriteOnly, 0, root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Read(make([]byte, 1)); !errnoIs(err, ErrBadFD) {
		t.Errorf("read on write-only fd: %v, want EBADF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); !errnoIs(err, ErrBadFD) {
		t.Errorf("double close: %v, want EBADF", err)
	}
	if _, err := r.Read(make([]byte, 1)); !errnoIs(err, ErrBadFD) {
		t.Errorf("read after close: %v, want EBADF", err)
	}
}

func TestOpenFileReadAtEOF(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/f", []byte("ab"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/f", ReadOnly, 0, root())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	n, err = f.Read(buf)
	if err != nil || n != 0 {
		t.Errorf("Read at EOF = (%d, %v), want (0, nil)", n, err)
	}
}

func TestChownChmodPermissions(t *testing.T) {
	fs := NewFS()
	if err := fs.WriteFile("/f", []byte("x"), 0644, root()); err != nil {
		t.Fatal(err)
	}
	user := CredFor(1000, 100)
	if err := fs.Chown("/f", 1000, 100, user); !errnoIs(err, ErrPerm) {
		t.Errorf("user chown: %v, want EPERM", err)
	}
	if err := fs.Chown("/f", 1000, 100, root()); err != nil {
		t.Fatal(err)
	}
	// Now alice owns it; she may chmod, bob may not.
	if err := fs.Chmod("/f", 0600, user); err != nil {
		t.Errorf("owner chmod: %v", err)
	}
	bob := CredFor(1001, 100)
	if err := fs.Chmod("/f", 0777, bob); !errnoIs(err, ErrPerm) {
		t.Errorf("non-owner chmod: %v, want EPERM", err)
	}
}

func TestModeString(t *testing.T) {
	if got := (ModeDir | 0755).String(); got != "d0755" {
		t.Errorf("mode = %q, want d0755", got)
	}
	if got := Mode(0644).String(); got != "-0644" {
		t.Errorf("mode = %q, want -0644", got)
	}
}

func TestNewWorld(t *testing.T) {
	w, err := NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/etc/passwd", "/var/www/index.html"} {
		if _, err := w.FS.ReadFile(path, root()); err != nil {
			t.Errorf("world missing base file %s: %v", path, err)
		}
	}
	// The secret must be unreadable by the web server user.
	www := CredFor(30, 8)
	if _, err := w.FS.ReadFile("/var/www/private/secret.html", www); err == nil {
		t.Error("wwwrun can read the secret; world misconfigured")
	}
	if _, err := w.FS.ReadFile("/var/www/private/secret.html", root()); err != nil {
		t.Errorf("root cannot read the secret: %v", err)
	}
	if u, ok := w.User("wwwrun"); !ok || u.UID != 30 {
		t.Errorf("User(wwwrun) = %+v, %v", u, ok)
	}
	if g, ok := LookupGroup(w.Groups, "www"); !ok || g.GID != 8 {
		t.Errorf("Group(www) = %+v, %v", g, ok)
	}
}

func TestQuickPasswdRoundTrip(t *testing.T) {
	f := func(uid, gid uint32, nameSeed uint8) bool {
		name := "u" + string(rune('a'+nameSeed%26))
		users := []User{{Name: name, UID: UID(uid), GID: GID(gid), Home: "/h", Shell: "/s"}}
		parsed, err := ParsePasswd(FormatPasswd(users))
		return err == nil && len(parsed) == 1 && parsed[0].UID == UID(uid) && parsed[0].GID == GID(gid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFileContentRoundTrip(t *testing.T) {
	fs := NewFS()
	f := func(data []byte) bool {
		if err := fs.WriteFile("/q", data, 0644, root()); err != nil {
			return false
		}
		got, err := fs.ReadFile("/q", root())
		if err != nil || len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErrnoHelpers(t *testing.T) {
	if _, ok := AsErrno(errors.New("plain")); ok {
		t.Error("AsErrno matched a plain error")
	}
	if ErrAccess.Error() != "EACCES: permission denied" {
		t.Errorf("Error() = %q", ErrAccess.Error())
	}
}
