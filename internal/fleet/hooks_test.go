package fleet

import (
	"strings"
	"testing"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/simnet"
	"nvariant/internal/testutil"
)

// Tests for the mesh-facing fleet hooks: LiveGroups, Rotate, the
// PortSpan budget, and the MultiAudit merged tail.

func mustFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = f.Stop() })
	return f
}

func TestLiveGroupsRoster(t *testing.T) {
	f := mustFleet(t, Options{Groups: 3})
	groups := f.LiveGroups()
	if len(groups) != 3 {
		t.Fatalf("roster has %d groups, want 3", len(groups))
	}
	for i, g := range groups {
		if g.ID != i {
			t.Errorf("roster[%d].ID = %d, want spawn order", i, g.ID)
		}
		if g.Draining {
			t.Errorf("fresh group %d marked draining", g.ID)
		}
		if g.Port == 0 || g.Born.IsZero() {
			t.Errorf("group %d missing port/born: %+v", g.ID, g)
		}
	}
}

func TestRotateDrainsAndReplaces(t *testing.T) {
	f := mustFleet(t, Options{Groups: 2})
	victim := f.OldestGroupID()
	if err := f.Rotate(victim, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Await(func(s Stats) bool {
		return s.Rotated == 1 && s.Replaced == 1 && len(s.Healthy) == 2
	}, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// The victim's slot is refilled by a *new* group: ids never come
	// back, and rotation does not count as a quarantine.
	st := f.Stats()
	if st.Quarantined != 0 || st.Detections != 0 {
		t.Errorf("rotation counted as quarantine/detection: %+v", st)
	}
	for _, g := range st.Healthy {
		if g.ID == victim {
			t.Errorf("rotated group %d still in the pool", victim)
		}
	}
	// The audit trail records the fresh-spec replacement.
	var entry *AuditEntry
	for _, e := range f.Audit().Entries() {
		if e.GroupID == victim {
			entry = &e
			break
		}
	}
	if entry == nil {
		t.Fatal("no audit entry for the rotated group")
	}
	if entry.Action != "rotate+replace" || entry.ReplacementID < 0 || entry.ReplacementR1 == "" {
		t.Errorf("audit entry = %+v, want rotate+replace with a replacement spec", entry)
	}
}

// TestRotateWaitsForInflightExchange: a client on the front port that
// has not yet sent its request holds Rotate open — the victim shows as
// draining with one connection in flight — and once it sends, it gets
// the whole response before the drain closes the port.
func TestRotateWaitsForInflightExchange(t *testing.T) {
	f := mustFleet(t, Options{Groups: 1})
	victim := f.OldestGroupID()
	conn, err := f.Net().Dial(f.Port())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	victimInfo := func() GroupInfo {
		for _, g := range f.LiveGroups() {
			if g.ID == victim {
				return g
			}
		}
		return GroupInfo{}
	}
	testutil.Eventually(t, 5*time.Second, func() bool { return victimInfo().Inflight == 1 },
		"connection never handed to group %d", victim)

	rotated := make(chan error, 1)
	go func() { rotated <- f.Rotate(victim, 5*time.Second) }()
	testutil.Eventually(t, 5*time.Second, func() bool { return victimInfo().Draining },
		"group %d never started draining", victim)
	if g := victimInfo(); g.Inflight != 1 {
		t.Fatalf("draining victim has %d connections in flight, want 1", g.Inflight)
	}
	select {
	case err := <-rotated:
		t.Fatalf("Rotate returned (%v) with an exchange in flight", err)
	default:
	}

	if err := conn.Send(httpd.AppendRequest(nil, "/index.html")); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil || resp == nil {
		t.Fatalf("response = %q, %v; want a full 200", resp, err)
	}
	const want = "<html><body><h1>It works!</h1></body></html>\n"
	if code, err := httpd.ParseStatus(resp); err != nil || code != 200 || string(httpd.Body(resp)) != want {
		t.Fatalf("response = %q (%d, %v), want a full 200", resp, code, err)
	}
	if err := <-rotated; err != nil {
		t.Fatalf("Rotate: %v", err)
	}
}

// dialSilent opens a front-port connection that never sends and waits
// until the fleet has handed it to a group.
func dialSilent(t *testing.T, f *Fleet) *simnet.Conn {
	t.Helper()
	conn, err := f.Net().Dial(f.Port())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	testutil.Eventually(t, 5*time.Second, func() bool { return f.Stats().Healthy[0].Inflight == 1 },
		"connection never handed to a group")
	return conn
}

// TestRotateClosesSilentClient: a client that never sends holds a
// rotation only for its drain budget; then the drain closes the
// connection, the group exits without an alarm and its replacement
// registers.
func TestRotateClosesSilentClient(t *testing.T) {
	f := mustFleet(t, Options{Groups: 1})
	conn := dialSilent(t, f)
	if err := f.Rotate(f.OldestGroupID(), 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case <-conn.PeerClosed():
	case <-time.After(10 * time.Second):
		t.Fatal("the silent client's connection outlived the drain budget")
	}
	if err := f.Await(func(s Stats) bool { return s.Rotated == 1 && s.Replaced == 1 && len(s.Healthy) == 1 }, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Detections != 0 || st.Quarantined != 0 {
		t.Errorf("closing the silent client raised an alarm: %+v", st)
	}
}

// TestStopClosesSilentClient: Stop returns while a client that never
// sends still holds its connection open, the client sees it close,
// and the group exits without an alarm.
func TestStopClosesSilentClient(t *testing.T) {
	f := mustFleet(t, Options{Groups: 1})
	conn := dialSilent(t, f)
	type result struct {
		st  Stats
		err error
	}
	stopped := make(chan result, 1)
	go func() {
		st, err := f.Stop()
		stopped <- result{st, err}
	}()
	select {
	case r := <-stopped:
		if r.err != nil || r.st.Detections != 0 {
			t.Errorf("Stop = %+v, %v; want no error and no detection", r.st, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop blocked behind a silent client")
	}
	select {
	case <-conn.PeerClosed():
	default:
		t.Error("Stop returned with the silent client's connection open")
	}
}

// TestHandoffSkipsDrainingGroup: a dispatcher holding a pool snapshot
// that still lists a draining group must not hand it a connection, or
// the drain, having read zero, could close the port on it.
func TestHandoffSkipsDrainingGroup(t *testing.T) {
	f := mustFleet(t, Options{Groups: 2})
	pool := *f.pool.Load()
	draining, live := pool[0], pool[1]
	draining.draining.Store(true)
	defer draining.draining.Store(false)

	l, err := f.Net().Listen(8080)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	// Round-robin offers the draining group first on one of two picks.
	for i := 0; i < 2; i++ {
		client, err := f.Net().Dial(8080)
		if err != nil {
			t.Fatal(err)
		}
		// Closed before the fleet stops: a group whose lane waits on an
		// open, silent client would never exit.
		t.Cleanup(func() { _ = client.Close() })
		handed, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		g := f.pickAndHand(handed)
		if g != live {
			t.Fatalf("handoff %d went to %v, want the non-draining %v", i, g, live)
		}
		if n := draining.inflight.Load(); n != 0 {
			t.Errorf("draining group has %d in flight after the dispatcher backed off", n)
		}
		if err := client.Send(httpd.AppendRequest(nil, "/index.html")); err != nil {
			t.Fatal(err)
		}
		if resp, err := client.Recv(); err != nil || resp == nil {
			t.Fatalf("exchange %d through the live group: %q, %v", i, resp, err)
		}
		<-handed.Done()
		g.release()
	}
}

func TestRetireRejectsMissingOrDraining(t *testing.T) {
	f := mustFleet(t, Options{Groups: 2})
	if err := f.Rotate(99, time.Second); err == nil {
		t.Error("rotating an unknown id succeeded")
	}
	victim := f.OldestGroupID()
	if err := f.Rotate(victim, time.Second); err != nil {
		t.Fatal(err)
	}
	// The group is gone or draining now; a second retirement of the
	// same id must fail rather than double-drain.
	if err := f.Rotate(victim, time.Second); err == nil {
		t.Error("second retirement of the same group succeeded")
	}
}

// TestPortSpanBudget: a fleet sharing a port space respects its span —
// a pool larger than its budget fails to start with a clean error, and
// a retired group's port is recycled so the budget is about concurrent
// size, not history.
func TestPortSpanBudget(t *testing.T) {
	_, err := New(Options{Groups: 3, PortSpan: 2})
	if err == nil || !strings.Contains(err.Error(), "port budget") {
		t.Fatalf("three groups in a span of two: err = %v, want port budget exhaustion", err)
	}

	f := mustFleet(t, Options{Groups: 2, PortSpan: 2})
	if err := f.Rotate(f.OldestGroupID(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.Await(func(s Stats) bool { return s.Replaced == 1 && len(s.Healthy) == 2 }, 15*time.Second); err != nil {
		t.Fatalf("rotation in a full span should recycle the port: %v", err)
	}
	for _, g := range f.LiveGroups() {
		if int(g.Port)-int(DefaultBasePort) >= 2 {
			t.Errorf("group %d on port %d, outside span [%d,%d)", g.ID, g.Port, DefaultBasePort, DefaultBasePort+2)
		}
	}
}

// TestMultiAuditMergesByVTime: the merged tail orders entries by
// virtual time across pools, tags each line with its pool, and pages
// with the since/n cursor.
func TestMultiAuditMergesByVTime(t *testing.T) {
	a, b := &AuditLog{}, &AuditLog{}
	a.append(AuditEntry{GroupID: 1, VTime: 50, Action: "quarantine+replace", ReplacementID: -1})
	b.append(AuditEntry{GroupID: 2, VTime: 10, Action: "rotate+replace", ReplacementID: -1})
	b.append(AuditEntry{GroupID: 3, VTime: 60, Action: "respawn+replace", ReplacementID: -1})

	m := NewMultiAudit()
	if _, _, err := m.TailNDJSON(0, 0); err == nil {
		t.Error("empty MultiAudit tail succeeded, want error")
	}
	m.Attach("poolA", a)
	m.Attach("poolB", b)

	buf, last, err := m.TailNDJSON(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 3 {
		t.Errorf("cursor = %d, want 3", last)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != 3 {
		t.Fatalf("merged tail has %d lines, want 3:\n%s", len(lines), buf)
	}
	wantOrder := []string{`"vtime":10`, `"vtime":50`, `"vtime":60`}
	wantPool := []string{`"pool":"poolB"`, `"pool":"poolA"`, `"pool":"poolB"`}
	for i, line := range lines {
		if !strings.Contains(line, wantOrder[i]) || !strings.Contains(line, wantPool[i]) {
			t.Errorf("line %d = %s, want %s from %s", i, line, wantOrder[i], wantPool[i])
		}
	}

	// Cursor paging: two entries, then resume.
	buf, last, err = m.TailNDJSON(0, 2)
	if err != nil || last != 2 {
		t.Fatalf("page 1: last=%d err=%v, want 2", last, err)
	}
	if n := len(strings.Split(strings.TrimSpace(string(buf)), "\n")); n != 2 {
		t.Errorf("page 1 has %d lines, want 2", n)
	}
	buf, last, err = m.TailNDJSON(2, 2)
	if err != nil || last != 3 {
		t.Fatalf("page 2: last=%d err=%v, want 3", last, err)
	}
	if !strings.Contains(string(buf), `"vtime":60`) {
		t.Errorf("page 2 = %s, want the vtime-60 entry", buf)
	}
}
