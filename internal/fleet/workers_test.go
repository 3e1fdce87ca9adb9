package fleet_test

import (
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/testutil"
	"nvariant/internal/vos"
	"nvariant/internal/webbench"
)

func TestFleetWorkersServeAndRecover(t *testing.T) {
	// A pool of prefork groups: benign load is served with no false
	// alarm, every group reports its lane count, and a probe striking
	// one lane of one group still quarantines exactly that group while
	// its siblings keep serving.
	f := startFleet(t, fleet.Options{Groups: 2, Workers: 3})

	m, err := webbench.Run(f.Net(), f.Port(), webbench.Options{Engines: 6, RequestsPerEngine: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d under benign load", m.Errors)
	}
	for _, g := range f.Stats().Healthy {
		if g.Workers != 3 {
			t.Errorf("group %d workers = %d, want 3", g.ID, g.Workers)
		}
	}

	// Probe, then drive triggers until the struck group's corrupted
	// lane sees one and its monitor kills the whole group.
	client := f.Client()
	if _, err := client.Raw(attack.ForgeUIDPayload(vos.Root)); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if !testutil.Poll(15*time.Second, func() bool {
		if f.Stats().Detections >= 1 {
			return true
		}
		code, body, err := client.Get("/private/secret.html")
		if err == nil && code == 200 && httpd.ContainsSecret(body) {
			t.Error("secret leaked from a worker lane")
			return true
		}
		return false
	}) {
		t.Fatalf("probe not detected: %+v", f.Stats())
	}
	if err := f.AwaitReplenished(1, 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	stats, err := f.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections != 1 || stats.Quarantined != 1 || stats.Replaced != 1 {
		t.Errorf("recovery counters = %+v, want 1/1/1", stats)
	}
	for _, g := range stats.Healthy {
		if g.Workers != 3 {
			t.Errorf("replacement group %d workers = %d, want 3", g.ID, g.Workers)
		}
	}
}
