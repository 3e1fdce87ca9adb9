package mesh

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRetryReroutesOnSaturation: a budgeted session whose home pool is
// saturated backs off and re-routes to the next-ranked rendezvous
// pool, and the mesh counts the retry, the re-route, and the charged
// backoff ticks.
func TestRetryReroutesOnSaturation(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, MaxInflight: 1, RetryBudget: 2, Seed: 21, Fleet: lightFleet(1)})
	s := m.Session("reroute-probe")
	home := s.pool

	home.inflight.Add(1) // saturate the home pool from the outside
	code, _, err := s.Get("/index.html")
	home.inflight.Add(-1)
	if err != nil || code != 200 {
		t.Fatalf("budgeted session did not recover: %d %v", code, err)
	}
	st := m.Stats()
	if st.Retries != 1 || st.Reroutes != 1 {
		t.Errorf("retries=%d reroutes=%d, want 1/1", st.Retries, st.Reroutes)
	}
	if want := m.opts.RetryBackoff; st.BackoffTicks != want {
		t.Errorf("backoff ticks = %d, want %d (one attempt at base)", st.BackoffTicks, want)
	}
	if st.Shed != 1 {
		t.Errorf("shed = %d, want 1 (the saturated first attempt)", st.Shed)
	}
}

// TestRetriesExhaustedTyped: with no alternative pool and a saturated
// home, the budget drains, the error carries both ErrRetriesExhausted
// and the final attempt's sentinel, and the charged backoff follows
// the exponential schedule (base, then base<<1, ...).
func TestRetriesExhaustedTyped(t *testing.T) {
	m := mustMesh(t, Options{Pools: 1, MaxInflight: 1, RetryBudget: 2, Fleet: lightFleet(1)})
	s := m.Session("exhaust-probe")
	s.pool.inflight.Add(1)
	defer s.pool.inflight.Add(-1)

	_, _, err := s.Get("/index.html")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("exhausted error lost the final attempt's sentinel: %v", err)
	}
	st := m.Stats()
	if st.Retries != 2 || st.Reroutes != 0 {
		t.Errorf("retries=%d reroutes=%d, want 2/0", st.Retries, st.Reroutes)
	}
	base := m.opts.RetryBackoff
	if want := base + base<<1; st.BackoffTicks != want {
		t.Errorf("backoff ticks = %d, want %d (exponential schedule)", st.BackoffTicks, want)
	}
}

// TestBadResponseRetriedOnBudget: a budgeted session treats a non-2xx
// status as a faulted dispatch (the benign corpus is known-good, so a
// failure status means wire corruption), while an unbudgeted session
// passes the status through untouched.
func TestBadResponseRetriedOnBudget(t *testing.T) {
	plain := mustMesh(t, Options{Pools: 1, Fleet: lightFleet(1)})
	s := plain.Session("status-probe")
	if code, _, err := s.Get("/no-such-uri.html"); err != nil || code != 404 {
		t.Fatalf("unbudgeted session: %d %v, want plain 404", code, err)
	}

	budgeted := mustMesh(t, Options{Pools: 1, RetryBudget: 1, Fleet: lightFleet(1)})
	b := budgeted.Session("status-probe")
	_, _, err := b.Get("/no-such-uri.html")
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrBadResponse) {
		t.Fatalf("budgeted session: %v, want ErrRetriesExhausted wrapping ErrBadResponse", err)
	}
	if st := budgeted.Stats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
}

// TestHealthDecayDeterministic: the health score is a pure function of
// the event sequence and the tick clock — identical meshes fed the
// identical sequence report identical scores at every half-life
// boundary, and each boundary halves the stored penalty.
func TestHealthDecayDeterministic(t *testing.T) {
	run := func() []int64 {
		m := mustMesh(t, Options{Pools: 1, Seed: 33, Fleet: lightFleet(1)})
		p := m.pools[0]
		p.healthAdd(m, 16)
		scores := []int64{p.healthScore(m)}
		for window := 0; window < 4; window++ {
			for i := uint64(0); i < m.opts.HealthHalfLife; i++ {
				m.tick()
			}
			scores = append(scores, p.healthScore(m))
		}
		return scores
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("score sequence diverged at window %d: %v vs %v", i, a, b)
		}
	}
	want := []int64{16, 8, 4, 2, 1}
	for i, w := range want {
		if a[i] != w {
			t.Fatalf("decay schedule = %v, want %v", a, want)
		}
	}
}

// TestSickPoolDemotedAndRecovers: hash routing demotes a sick home
// pool to the next-ranked healthy pool and restores it once the score
// decays under the threshold. With every pool sick, the home keeps
// serving — demotion never refuses service.
func TestSickPoolDemotedAndRecovers(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, Seed: 44, Fleet: lightFleet(1)})
	const key = "demote-probe"
	home := m.RouteKey(key)
	alt := 1 - home

	m.pools[home].healthAdd(m, m.opts.HealthSickAt)
	if got := m.RouteKey(key); got != alt {
		t.Fatalf("sick home %d still routed (got %d, want demotion to %d)", home, got, alt)
	}
	// Both pools sick: the home pool wins again (no healthy alternative).
	m.pools[alt].healthAdd(m, m.opts.HealthSickAt)
	if got := m.RouteKey(key); got != home {
		t.Fatalf("all-sick mesh routed %d, want original home %d", got, home)
	}
	// One half-life halves both scores under the threshold: recovered.
	for i := uint64(0); i < m.opts.HealthHalfLife; i++ {
		m.tick()
	}
	if got := m.RouteKey(key); got != home {
		t.Errorf("recovered mesh routed %d, want home %d", got, home)
	}
}

// TestFaultPressureGrowsPool: a sick pool grows on the next elastic
// review regardless of load ratio, and sickness suppresses shrinking
// until the score decays.
func TestFaultPressureGrowsPool(t *testing.T) {
	m := mustMesh(t, Options{Pools: 1, MinGroups: 1, MaxGroups: 2, Fleet: lightFleet(1)})
	p := m.pools[0]

	p.healthAdd(m, m.opts.HealthSickAt)
	p.peak.Store(0) // idle — only fault pressure justifies the grow
	m.ctl.reviewOnce()
	if h := p.fleet.HealthyCount(); h != 2 {
		t.Fatalf("sick pool did not grow: healthy = %d, want 2", h)
	}

	// Still sick: an idle review must not shrink the reinforcement away.
	p.peak.Store(0)
	m.ctl.reviewOnce()
	if sh := m.ctl.shrunk.Load(); sh != 0 {
		t.Fatalf("sick pool shrank (%d) — shrink must wait for recovery", sh)
	}

	// Decayed to zero: idle reviews shrink back to MinGroups.
	for i := uint64(0); i < 5*m.opts.HealthHalfLife; i++ {
		m.tick()
	}
	p.peak.Store(0)
	m.ctl.reviewOnce()
	if sh := m.ctl.shrunk.Load(); sh != 1 {
		t.Errorf("recovered idle pool did not shrink: shrunk = %d", sh)
	}
}

// TestRetryRacesRotationSafely is the -race drill for the retry ↔
// rotation interaction: budgeted sessions retrying through transient
// saturation while the controller rotates groups under them. Every
// request must end in success or a typed saturation outcome — a retry
// that landed on a draining group would surface as an untyped
// connection error.
func TestRetryRacesRotationSafely(t *testing.T) {
	m := mustMesh(t, Options{
		Pools:             2,
		RotateEvery:       2,
		AvailabilityFloor: 1,
		RetryBudget:       3,
		MaxInflight:       2,
		Seed:              55,
		Fleet:             lightFleet(2),
	})

	stop := make(chan struct{})
	var saturator sync.WaitGroup
	saturator.Add(1)
	go func() {
		defer saturator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Transiently exhaust pool 0's budget so in-flight requests
			// shed and retry while rotation churns.
			m.pools[0].inflight.Add(2)
			time.Sleep(200 * time.Microsecond)
			m.pools[0].inflight.Add(-2)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var load sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			s := m.Session(fmt.Sprintf("racer-%d", w))
			for i := 0; i < 12; i++ {
				_, _, err := s.Get("/index.html")
				if err != nil && !errors.Is(err, ErrSaturated) {
					errCh <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	load.Wait()
	close(stop)
	saturator.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := m.Await(func(st Stats) bool {
		return st.RotationsHandled >= m.Ticks()/2
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Rotations+st.RotationsSkipped == 0 {
		t.Errorf("rotation never triggered under retry load: %s", st)
	}
}

// TestSettleTimeoutReported: a retry whose backoff leaves a controller
// trigger unhandled past RecoverTimeout fails with ErrSettleTimeout
// (label "settle-timeout") instead of dispatching the retry against an
// unsettled mesh — on both the Fetch and the Get path.
func TestSettleTimeoutReported(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, MaxInflight: 1, RetryBudget: 2,
		RecoverTimeout: time.Millisecond, Fleet: lightFleet(1)})
	m.ctl.halt()
	m.ctl.rotWanted.Add(1) // a rotation trigger nobody will handle

	s := m.Session("settle-probe")
	s.pool.inflight.Add(1) // the first attempt is shed, so a retry follows
	defer s.pool.inflight.Add(-1)

	_, _, getErr := s.Get("/index.html")
	_, _, fetchErr := s.Fetch([]byte("GET /index.html HTTP/1.0\r\n\r\n"))
	for name, err := range map[string]error{"Get": getErr, "Fetch": fetchErr} {
		if !errors.Is(err, ErrSettleTimeout) {
			t.Errorf("%s: err = %v, want ErrSettleTimeout", name, err)
		}
		if got := DispatchErrorName(err); got != "settle-timeout" {
			t.Errorf("%s: label %q, want settle-timeout", name, got)
		}
	}
	if st := m.Stats(); st.Retries != 0 || st.Dispatched != 0 {
		t.Errorf("retries=%d dispatched=%d, want 0/0: nothing may dispatch past an unsettled control plane",
			st.Retries, st.Dispatched)
	}
}
