package mesh

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/simnet"
)

// dropper is a test FaultInjector that severs the next n messages on
// its pool's network segment and, when every > 0, every every-th
// message after those. A fleet sends nothing on its own, so each
// message it sees is a dispatch's request or response.
type dropper struct {
	n, every int64
	seen     atomic.Int64
}

func (d *dropper) FaultFor(int) simnet.Fault {
	i := d.seen.Add(1)
	return simnet.Fault{Drop: i <= d.n || d.every > 0 && (i-d.n)%d.every == 0}
}

// poolFaults returns an Options.Faults that installs fs[i] on pool i:
// New calls Faults once per pool, in pool order. A nil entry leaves
// its pool fault-free.
func poolFaults(fs ...simnet.FaultInjector) func(int64) simnet.FaultInjector {
	next := 0
	return func(int64) simnet.FaultInjector {
		next++
		return fs[next-1]
	}
}

// keyOn returns a session key whose home is pool i.
func keyOn(t *testing.T, m *Mesh, i int) string {
	t.Helper()
	for k := 0; k < 64; k++ {
		if key := fmt.Sprintf("probe-%d", k); m.RouteKey(key) == i {
			return key
		}
	}
	t.Fatalf("no probe key routes to pool %d", i)
	return ""
}

// TestRetryReroutesOnFailedDispatch: a budgeted session whose home
// pool severs the first attempt backs off and re-routes to the
// next-ranked rendezvous pool, and the mesh counts the retry, the
// re-route, and the charged backoff ticks.
func TestRetryReroutesOnFailedDispatch(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, RetryBudget: 2, Seed: 21, Fleet: lightFleet(1),
		Faults: poolFaults(&dropper{n: 1}, nil)})
	s := m.Session(keyOn(t, m, 0))

	code, _, err := s.Get("/index.html")
	if err != nil || code != 200 {
		t.Fatalf("budgeted session did not recover: %d %v", code, err)
	}
	st := m.Stats()
	if st.Retries != 1 || st.Reroutes != 1 {
		t.Errorf("retries=%d reroutes=%d, want 1/1", st.Retries, st.Reroutes)
	}
	if want := retryBackoff; st.BackoffTicks != want {
		t.Errorf("backoff ticks = %d, want %d (one attempt at base)", st.BackoffTicks, want)
	}
}

// TestRetriesExhaustedTyped: a budgeted session whose only pool severs
// every dispatch spends its budget and fails with ErrRetriesExhausted,
// which still carries the final attempt's transport error; the retries
// stay on the home pool and the charged backoff follows the
// exponential schedule (base, then base<<1).
func TestRetriesExhaustedTyped(t *testing.T) {
	m := mustMesh(t, Options{Pools: 1, RetryBudget: 2, Fleet: lightFleet(1),
		Faults: poolFaults(&dropper{every: 1})})
	s := m.Session("exhaust-probe")

	_, _, err := s.Get("/index.html")
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// A severed dispatch fails on the dead endpoint or on the missing
	// response, whichever the client reaches first.
	if !errors.Is(err, simnet.ErrClosed) && !errors.Is(err, httpd.ErrConnClosed) {
		t.Errorf("exhausted error lost the final attempt's error: %v", err)
	}
	st := m.Stats()
	if st.Retries != 2 || st.Reroutes != 0 {
		t.Errorf("retries=%d reroutes=%d, want 2/0", st.Retries, st.Reroutes)
	}
	const base = retryBackoff
	if want := base + base<<1; st.BackoffTicks != want {
		t.Errorf("backoff ticks = %d, want %d (exponential schedule)", st.BackoffTicks, want)
	}
}

// TestBadResponseRetriedOnBudget: a budgeted session treats a non-2xx
// status as a faulted dispatch (the benign corpus is known-good, so a
// failure status means wire corruption), while an unbudgeted session
// passes the status through untouched. With no alternative pool the
// budget drains, the error carries both ErrRetriesExhausted and the
// final attempt's sentinel, and the charged backoff follows the
// exponential schedule (base, then base<<1, ...).
func TestBadResponseRetriedOnBudget(t *testing.T) {
	plain := mustMesh(t, Options{Pools: 1, Fleet: lightFleet(1)})
	s := plain.Session("status-probe")
	if code, _, err := s.Get("/no-such-uri.html"); err != nil || code != 404 {
		t.Fatalf("unbudgeted session: %d %v, want plain 404", code, err)
	}

	budgeted := mustMesh(t, Options{Pools: 1, RetryBudget: 2, Fleet: lightFleet(1)})
	b := budgeted.Session("status-probe")
	_, _, err := b.Get("/no-such-uri.html")
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrBadResponse) {
		t.Fatalf("budgeted session: %v, want ErrRetriesExhausted wrapping ErrBadResponse", err)
	}
	st := budgeted.Stats()
	if st.Retries != 2 || st.Reroutes != 0 {
		t.Errorf("retries=%d reroutes=%d, want 2/0", st.Retries, st.Reroutes)
	}
	const base = retryBackoff
	if want := base + base<<1; st.BackoffTicks != want {
		t.Errorf("backoff ticks = %d, want %d (exponential schedule)", st.BackoffTicks, want)
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
			for i := uint64(0); i < healthHalfLife; i++ {
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

	m.pools[home].healthAdd(m, healthSickAt)
	if got := m.RouteKey(key); got != alt {
		t.Fatalf("sick home %d still routed (got %d, want demotion to %d)", home, got, alt)
	}
	// Both pools sick: the home pool wins again (no healthy alternative).
	m.pools[alt].healthAdd(m, healthSickAt)
	if got := m.RouteKey(key); got != home {
		t.Fatalf("all-sick mesh routed %d, want original home %d", got, home)
	}
	// One half-life halves both scores under the threshold: recovered.
	for i := uint64(0); i < healthHalfLife; i++ {
		m.tick()
	}
	if got := m.RouteKey(key); got != home {
		t.Errorf("recovered mesh routed %d, want home %d", got, home)
	}
}

// TestSickPoolSkipsRotationUntilDecayed: a pool charged to the sick
// threshold skips its rotation turn (the trigger still counts as
// handled), and once its score decays back below healthSickAt the
// next turn rotates normally.
func TestSickPoolSkipsRotationUntilDecayed(t *testing.T) {
	m := mustMesh(t, Options{Pools: 1, AvailabilityFloor: 1, Fleet: lightFleet(2)})
	p := m.pools[0]

	p.healthAdd(m, healthSickAt)
	m.ctl.rotateOnce()
	if sk, rot := m.ctl.skipped.Load(), m.ctl.rotated.Load(); sk != 1 || rot != 0 {
		t.Fatalf("sick pool: skipped=%d rotated=%d, want 1/0", sk, rot)
	}

	for i := uint64(0); i < 5*healthHalfLife; i++ {
		m.tick()
	}
	if score := p.healthScore(m); score >= healthSickAt {
		t.Fatalf("score %d did not decay below %d", score, healthSickAt)
	}
	m.ctl.rotateOnce()
	if sk, rot := m.ctl.skipped.Load(), m.ctl.rotated.Load(); sk != 1 || rot != 1 {
		t.Errorf("recovered pool: skipped=%d rotated=%d, want 1/1", sk, rot)
	}
}

// TestRetryRacesRotationSafely is the -race drill for the retry ↔
// rotation interaction: budgeted sessions retrying through severed
// dispatches on pool 0 (every 5th message) while the controller
// rotates groups under them. Pool 1 drops nothing, so every request
// must succeed — a retry that landed on a draining group would surface
// as a connection error.
func TestRetryRacesRotationSafely(t *testing.T) {
	m := mustMesh(t, Options{
		Pools:             2,
		RotateEvery:       2,
		AvailabilityFloor: 1,
		RetryBudget:       3,
		Seed:              55,
		Fleet:             lightFleet(2),
		Faults:            poolFaults(&dropper{every: 5}, nil),
	})

	// At least one session lives on pool 0 and so retries off it.
	keys := []string{keyOn(t, m, 0), "racer-1", "racer-2", "racer-3"}
	var load sync.WaitGroup
	errCh := make(chan error, len(keys))
	for w, key := range keys {
		load.Add(1)
		go func(w int, key string) {
			defer load.Done()
			s := m.Session(key)
			for i := 0; i < 12; i++ {
				if _, _, err := s.Get("/index.html"); err != nil {
					errCh <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w, key)
	}
	load.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := m.Await(func(st Stats) bool {
		return st.RotationsHandled >= m.Ticks()/2
	}, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Retries == 0 {
		t.Errorf("no retry under pool 0's drops: %s", st)
	}
	if st.Rotations+st.RotationsSkipped == 0 {
		t.Errorf("rotation never triggered under retry load: %s", st)
	}
}

// TestSettleTimeoutReported: a retry whose backoff leaves a controller
// trigger unhandled past the recover timeout fails with ErrSettleTimeout
// (label "settle-timeout") instead of dispatching the retry against an
// unsettled mesh — on both the Fetch and the Get path.
func TestSettleTimeoutReported(t *testing.T) {
	m := mustMesh(t, Options{Pools: 2, RetryBudget: 2, Fleet: lightFleet(1)})
	m.ctl.halt()
	m.recoverTimeout = time.Millisecond
	m.ctl.rotWanted.Add(1) // a rotation trigger nobody will handle

	// The first attempt's 404 is a bad response, so a retry follows.
	s := m.Session("settle-probe")
	_, _, getErr := s.Get("/no-such-uri.html")
	_, _, fetchErr := s.Fetch([]byte("GET /no-such-uri.html HTTP/1.0\r\n\r\n"))
	for name, err := range map[string]error{"Get": getErr, "Fetch": fetchErr} {
		if !errors.Is(err, ErrSettleTimeout) {
			t.Errorf("%s: err = %v, want ErrSettleTimeout", name, err)
		}
		if got := DispatchErrorName(err); got != "settle-timeout" {
			t.Errorf("%s: label %q, want settle-timeout", name, got)
		}
	}
	if st := m.Stats(); st.Retries != 0 || st.Dispatched != 2 {
		t.Errorf("retries=%d dispatched=%d, want 0/2: no retry may dispatch past an unsettled control plane",
			st.Retries, st.Dispatched)
	}
}
