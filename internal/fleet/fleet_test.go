package fleet_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/reexpress"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
)

func startFleet(t *testing.T, opts fleet.Options) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(opts)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

func TestFleetServesBenignLoad(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 3})
	m, err := webbench.Run(f.Net(), f.Port(), webbench.Options{Engines: 6, RequestsPerEngine: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d under benign load", m.Errors)
	}
	if m.Requests != 60 {
		t.Errorf("requests = %d, want 60", m.Requests)
	}
	// Every connection is dispatched and served once, and leaves
	// nothing in flight once its exchange ends; the release follows the
	// group's close, so await it.
	settled := func(want int64) {
		t.Helper()
		if err := f.Await(func(s fleet.Stats) bool {
			served, inflight := int64(0), int64(0)
			for _, g := range s.Healthy {
				served += g.Served
				inflight += g.Inflight
			}
			return s.Dispatched == want && served == want && inflight == 0
		}, 5*time.Second); err != nil {
			t.Fatalf("after %d connections: %v", want, err)
		}
	}
	settled(60)
	client := f.Client()
	for want := int64(61); want <= 63; want++ {
		if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("request %d = %d, %v", want, code, err)
		}
		settled(want)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 0 || stats.Quarantined != 0 || stats.Replaced != 0 {
		t.Errorf("benign load caused recovery actions: %+v", stats)
	}
	if stats.Spawned != 3 {
		t.Errorf("spawned = %d, want 3", stats.Spawned)
	}
	// Round-robin must have spread connections across the whole pool.
	for _, g := range stats.Healthy {
		if g.Served == 0 {
			t.Errorf("group %d served no connections under round-robin", g.ID)
		}
	}
	if f.Audit().Len() != 0 {
		t.Errorf("audit entries under benign load: %v", f.Audit().Entries())
	}
}

func TestFleetPoolIsRepresentationDiverse(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 4})
	defer func() { _, _ = f.Stop() }()
	stats := f.Stats()
	if len(stats.Healthy) != 4 {
		t.Fatalf("healthy = %d, want 4", len(stats.Healthy))
	}
	seen := map[string]bool{}
	for _, g := range stats.Healthy {
		if seen[g.R1] {
			t.Errorf("duplicate R1 %q in initial pool", g.R1)
		}
		seen[g.R1] = true
	}
	// Group 0 runs the paper's published mask.
	if stats.Healthy[0].R1 != reexpress.UIDVariation().Pair.R1.Name() {
		t.Errorf("group 0 R1 = %q, want the paper's pair", stats.Healthy[0].R1)
	}
}

func TestFleetQuarantineAndReplacement(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 2})
	client := f.Client()

	// Benign sanity check through the dispatcher.
	if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("benign request = %d, %v", code, err)
	}

	// Step 1: the overflow probe corrupts one group's worker UID.
	if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		t.Fatalf("overflow: %v", err)
	}

	// Step 2: drive requests until the struck group uses the forged
	// UID and the monitor kills it. The kill drops the exchange it
	// interrupts with no response bytes at all.
	deadline := time.Now().Add(15 * time.Second)
	drops := 0
	for f.Stats().Detections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("attack not detected")
		}
		raw, err := client.Raw([]byte("GET /private/secret.html HTTP/1.0\r\n\r\n"))
		if err != nil {
			if !errors.Is(err, httpd.ErrConnClosed) {
				t.Fatalf("trigger request: %v, want a drop with no response", err)
			}
			drops++
			continue
		}
		if httpd.ContainsSecret(httpd.Body(raw)) {
			t.Fatal("secret leaked through the fleet")
		}
	}
	if drops == 0 {
		t.Error("the killed group's exchange was not dropped")
	}

	// The replacement must come up and the fleet keep serving.
	if err := f.AwaitReplenished(1, 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
			t.Fatalf("post-recovery request %d = %d, %v", i, code, err)
		}
	}

	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 1 || stats.Quarantined != 1 || stats.Replaced != 1 || stats.Spawned != 3 {
		t.Errorf("stats = %+v", stats)
	}

	entries := f.Audit().Entries()
	if len(entries) != 1 {
		t.Fatalf("audit entries = %d, want 1: %v", len(entries), entries)
	}
	e := entries[0]
	if e.Alarm == nil || e.Alarm.Reason != nvkernel.ReasonUIDDivergence {
		t.Errorf("audit alarm = %+v, want uid-divergence", e.Alarm)
	}
	if e.Action != "quarantine+replace" || e.ReplacementID < 0 {
		t.Errorf("audit action = %q replacement = %d", e.Action, e.ReplacementID)
	}
	if e.ReplacementR1 == e.R1 {
		t.Errorf("replacement reuses the dead group's functions: %q", e.R1)
	}
}

func TestFleetStopIdempotent(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 1})
	if _, err := f.Stop(); err != nil {
		t.Fatalf("first stop: %v", err)
	}
	if _, err := f.Stop(); err == nil {
		t.Error("second stop did not report the fleet as stopped")
	}
}

// TestFleetClientHangUpRaisesNoAlarm: clients that send a request and
// close before the response arrives are not an attack. Each response's
// send meets a closed peer and answers EPIPE, httpd ends that
// connection, and the group keeps serving: no detection, no
// quarantine.
func TestFleetClientHangUpRaisesNoAlarm(t *testing.T) {
	const hangUps = 20
	f := startFleet(t, fleet.Options{Groups: 1})
	for i := 0; i < hangUps; i++ {
		conn, err := f.Net().Dial(f.Port())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(httpd.AppendRequest(nil, "/index.html")); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	if code, _, err := f.Client().Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("request after the hang-ups = %d, %v", code, err)
	}
	if err := f.Await(func(s fleet.Stats) bool {
		inflight := int64(0)
		for _, g := range s.Healthy {
			inflight += g.Inflight
		}
		return s.Dispatched == hangUps+1 && inflight == 0
	}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 0 || stats.Quarantined != 0 || stats.Replaced != 0 {
		t.Errorf("client hang-ups caused recovery actions: detections %d, quarantined %d, replaced %d",
			stats.Detections, stats.Quarantined, stats.Replaced)
	}
}

// TestFleetRemoteStopRequestIsNotFound: a group stops only when its
// port closes. A client asking for /__shutdown through the front door
// gets the ordinary 404 and stops nothing; an in-band stop would let
// any client churn groups with no detection and no audit trail.
func TestFleetRemoteStopRequestIsNotFound(t *testing.T) {
	const requests = 5
	f := startFleet(t, fleet.Options{Groups: 2})
	ids := func(s fleet.Stats) []int {
		var out []int
		for _, g := range s.Healthy {
			out = append(out, g.ID)
		}
		return out
	}
	before := ids(f.Stats())
	client := f.Client()
	for i := 0; i < requests; i++ {
		if code, _, err := client.Get("/__shutdown"); err != nil || code != 404 {
			t.Fatalf("request %d = %d, %v; want 404", i, code, err)
		}
	}
	if err := f.Await(func(s fleet.Stats) bool {
		inflight := int64(0)
		for _, g := range s.Healthy {
			inflight += g.Inflight
		}
		return s.Dispatched == requests && inflight == 0
	}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.Detections != 0 || stats.Quarantined != 0 || stats.Spawned != 2 {
		t.Errorf("detections %d, quarantined %d, spawned %d; want 0, 0, 2",
			stats.Detections, stats.Quarantined, stats.Spawned)
	}
	if after := ids(stats); !slices.Equal(after, before) {
		t.Errorf("serving groups %v, want %v", after, before)
	}
	if f.Audit().Len() != 0 {
		t.Errorf("audit entries: %v", f.Audit().Entries())
	}
	if _, err := f.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetRecyclesQuarantinedPorts is the port-exhaustion regression
// test: with only exactly Groups ports in the space above BasePort, a
// replacement can only come up by recycling the quarantined group's
// port. Before recycling, nextPort walked monotonically off the end of
// the uint16 space and the replacement spawn failed.
func TestFleetRecyclesQuarantinedPorts(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 2, BasePort: 65534})
	client := f.Client()

	for probe := 1; probe <= 3; probe++ {
		if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
			t.Fatalf("probe %d overflow: %v", probe, err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for f.Stats().Detections < probe {
			if time.Now().After(deadline) {
				t.Fatalf("probe %d not detected", probe)
			}
			_, _, _ = client.Get("/private/secret.html")
		}
		if err := f.AwaitReplenished(probe, 2, 15*time.Second); err != nil {
			t.Fatalf("replacement %d (port recycling failed?): %v", probe, err)
		}
	}

	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replaced != 3 || len(stats.Healthy) != 2 {
		t.Errorf("stats = %+v", stats)
	}
	// Every healthy group must sit on one of the only two legal ports.
	for _, g := range stats.Healthy {
		if g.Port != 65534 && g.Port != 65535 {
			t.Errorf("group %d on port %d, outside the 2-port space", g.ID, g.Port)
		}
	}
	// And the pool still serves.
	for _, e := range f.Audit().Entries() {
		if e.Action != "quarantine+replace" {
			t.Errorf("audit entry action = %q", e.Action)
		}
	}
}

// TestFleetNVariantGroups runs a pool of 3-variant groups: benign load
// must be served cleanly and the planted attack detected and recovered
// from, exactly as at N=2.
func TestFleetNVariantGroups(t *testing.T) {
	f := startFleet(t, fleet.Options{Groups: 2, Variants: 3})
	client := f.Client()

	stats := f.Stats()
	for _, g := range stats.Healthy {
		if g.Variants != 3 {
			t.Errorf("group %d variants = %d, want 3", g.ID, g.Variants)
		}
		if g.Stack != "uid+address-partition+unshared-files" {
			t.Errorf("group %d stack = %q", g.ID, g.Stack)
		}
	}

	if code, _, err := client.Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("benign request = %d, %v", code, err)
	}
	if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		t.Fatalf("overflow: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for f.Stats().Detections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("attack not detected at N=3")
		}
		code, body, err := client.Get("/private/secret.html")
		if err == nil && code == 200 && httpd.ContainsSecret(body) {
			t.Fatal("secret leaked through the 3-variant fleet")
		}
	}
	if err := f.AwaitReplenished(1, 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 1 || stats.Replaced != 1 {
		t.Errorf("stats = %+v", stats)
	}
	entries := f.Audit().Entries()
	if len(entries) != 1 || entries[0].Variants != 3 {
		t.Errorf("audit = %+v", entries)
	}
}

// TestFleetCustomStack runs groups whose generated specs carry only
// the UID and unshared-files layers (no address partitioning).
func TestFleetCustomStack(t *testing.T) {
	f := startFleet(t, fleet.Options{
		Groups:   2,
		Variants: 2,
		Stack:    []reexpress.LayerKind{reexpress.LayerUID, reexpress.LayerUnsharedFiles},
	})
	defer func() { _, _ = f.Stop() }()
	if code, _, err := f.Client().Get("/index.html"); err != nil || code != 200 {
		t.Fatalf("request = %d, %v", code, err)
	}
	for _, g := range f.Stats().Healthy {
		if g.Stack != "uid+unshared-files" {
			t.Errorf("group %d stack = %q", g.ID, g.Stack)
		}
	}
}

func TestFleetRejectsBadStack(t *testing.T) {
	if _, err := fleet.New(fleet.Options{Stack: []reexpress.LayerKind{reexpress.LayerKind(99)}}); err == nil {
		t.Error("unknown stack layer kind accepted")
	}
	if _, err := fleet.New(fleet.Options{Stack: []reexpress.LayerKind{reexpress.LayerUID, reexpress.LayerUID}}); err == nil {
		t.Error("repeated UID stack layer accepted")
	}
}
