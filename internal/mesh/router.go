package mesh

// The router maps session keys to pools. Routing happens once, at
// Session creation; the per-request hot path (Session.Fetch) is the
// fleet client plus mesh accounting, and adds no allocations on top of
// it (see TestMeshSessionAddsNoAllocs) — with or without the retry
// machinery enabled. Retries are the exception: a failed dispatch may
// back off on the mesh clock and re-route to the next-ranked
// rendezvous pool, and that recovery path is allowed to allocate.

import (
	"fmt"
	"sort"

	"nvariant/internal/httpd"
)

// hashKey is FNV-1a over the key bytes — allocation-free, unlike
// hash/fnv's boxed hash.Hash64.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// hrw picks the key's rendezvous (highest-random-weight) pool: the
// shard whose seeded salt mixes with the key hash to the largest
// weight. Every key has a stable home, and adding or removing a pool
// would remap only the minimal 1/P share of keys.
func (m *Mesh) hrw(kh uint64) *pool {
	best, bestW := 0, uint64(0)
	for i, salt := range m.salts {
		if w := splitmix64(kh ^ salt); i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return m.pools[best]
}

// routePool resolves key-hash → pool. A sick home pool is demoted: the
// session falls through to the best-ranked healthy pool (keeping the
// home when every pool is sick — demotion must never refuse service).
func (m *Mesh) routePool(kh uint64) *pool {
	p := m.hrw(kh)
	if p.sick(m) {
		if alt := m.bestHealthyPool(kh); alt != nil {
			return alt
		}
	}
	return p
}

// RouteKey reports the pool index a key resolves to, exactly as
// Session would route it.
func (m *Mesh) RouteKey(key string) int { return m.routePool(hashKey(key)).id }

// Session is one client's sticky handle on its routed pool. Create it
// once per logical client (routing and client setup allocate), then
// dispatch through it — Fetch adds no allocations on top of the
// fleet's own dispatch path until a retry fires.
type Session struct {
	mesh   *Mesh
	pool   *pool
	client *httpd.Client
	// kh is the session key's hash, retained so retries can re-rank
	// pools without the key string.
	kh uint64
	// alts lazily caches one client per pool for retry re-routing
	// (each pool is its own network segment, so clients are
	// pool-specific). Nil until the first re-routed attempt.
	alts []*httpd.Client
}

// Session routes key to its pool and returns a dispatch handle.
func (m *Mesh) Session(key string) *Session {
	kh := hashKey(key)
	p := m.routePool(kh)
	return &Session{mesh: m, pool: p, kh: kh, client: httpd.NewClient(p.fleet.Net(), p.fleet.Port())}
}

// PoolIndex reports which shard the session landed on.
func (s *Session) PoolIndex() int { return s.pool.id }

// doneOn counts the dispatch and advances the mesh clock.
func (s *Session) doneOn(p *pool) {
	p.served.Add(1)
	s.mesh.dispatched.Add(1)
	if s.mesh.obs != nil {
		s.mesh.obs.dispatched.Inc()
	}
	s.mesh.tick()
}

// healthCostFor maps a classified dispatch error to its health
// penalty.
func healthCostFor(err error) int64 {
	switch DispatchErrorName(err) {
	case "quorum-lost-kill":
		return healthQuorumCost
	case "quarantine-window":
		return healthQuarantineCost
	default:
		return healthErrCost
	}
}

// dispatchOn runs one dispatch attempt against pool p, with
// do as the client call (Fetch or Get). The fleet's alarm and
// quorum-kill counters are snapshotted around the dispatch (two atomic
// loads) so a transport error can be attributed to the recovery window
// it raced; classification and health charging happen only on the
// error path. On budgeted sessions a non-2xx status is itself a
// faulted dispatch (ErrBadResponse) — a known-good request's failure
// status can only mean wire corruption or a mid-kill response.
func dispatchOn[In, Out any](s *Session, p *pool, c *httpd.Client, in In, do func(*httpd.Client, In) (int, Out, error)) (int, Out, error) {
	alarms, quorum := p.fleet.AlarmCount(), p.fleet.QuorumLostCount()
	code, out, err := do(c, in)
	s.doneOn(p)
	if err == nil && s.mesh.opts.RetryBudget > 0 && (code < 200 || code > 299) {
		err = fmt.Errorf("%w: status %d", ErrBadResponse, code)
	}
	if err != nil {
		err = classifyDispatchError(err, p.fleet.AlarmCount()-alarms, p.fleet.QuorumLostCount()-quorum)
		p.healthAdd(s.mesh, healthCostFor(err))
	}
	return code, out, err
}

// dispatch is the one attempt loop behind Fetch and Get: the first
// attempt on the session's pool, then, with a retry budget configured,
// backoff on the mesh clock and re-route to the next-ranked pool until
// an attempt succeeds or the budget is spent (ErrRetriesExhausted).
// do is a method expression, not a closure, so the first attempt adds
// no allocation.
func dispatch[In, Out any](s *Session, in In, do func(*httpd.Client, In) (int, Out, error)) (int, Out, error) {
	code, out, err := dispatchOn(s, s.pool, s.client, in, do)
	if err == nil || s.mesh.opts.RetryBudget <= 0 {
		return code, out, err
	}
	var none Out
	for n := 1; n <= s.mesh.opts.RetryBudget; n++ {
		p, c, settleErr := s.retryAttempt(n)
		if settleErr != nil {
			return 0, none, settleErr
		}
		if code, out, err = dispatchOn(s, p, c, in, do); err == nil {
			return code, out, nil
		}
	}
	return 0, none, s.exhausted(err)
}

// retryOrder ranks every pool for a retry pass: rendezvous weight
// order for the session key, healthy pools strictly before sick ones.
// The home pool sits at index 0 when healthy; attempt k dials
// order[k mod P], so retries walk the alternatives before coming back
// around.
func (m *Mesh) retryOrder(kh uint64) []*pool {
	n := len(m.pools)
	type ranked struct {
		p    *pool
		w    uint64
		sick bool
	}
	ws := make([]ranked, n)
	for i, salt := range m.salts {
		p := m.pools[i]
		ws[i] = ranked{p: p, w: splitmix64(kh ^ salt), sick: p.sick(m)}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].sick != ws[j].sick {
			return !ws[i].sick
		}
		return ws[i].w > ws[j].w
	})
	order := make([]*pool, n)
	for i := range ws {
		order[i] = ws[i].p
	}
	return order
}

// retryTarget resolves the attempt-th retry's pool and its cached
// client, creating the client on first use of that pool.
func (s *Session) retryTarget(attempt int) (*pool, *httpd.Client) {
	m := s.mesh
	order := m.retryOrder(s.kh)
	p := order[attempt%len(order)]
	if s.alts == nil {
		s.alts = make([]*httpd.Client, len(m.pools))
		s.alts[s.pool.id] = s.client
	}
	if s.alts[p.id] == nil {
		s.alts[p.id] = httpd.NewClient(p.fleet.Net(), p.fleet.Port())
	}
	return p, s.alts[p.id]
}

// retryAttempt prepares one retry: charge the seeded exponential
// backoff (base << attempt-1 ticks, so rotation and health decay see
// fault pressure as elapsed time), let the rotation triggers those
// ticks fired settle, then rank pools with the post-settle health
// state and resolve the attempt's target. Counters: every attempt past
// the first is a retry; an attempt on a non-home pool is additionally
// a re-route. A control plane that does not settle within the recover
// timeout fails the attempt with ErrSettleTimeout before anything is
// dispatched or counted.
func (s *Session) retryAttempt(attempt int) (*pool, *httpd.Client, error) {
	m := s.mesh
	shift := uint(attempt - 1)
	if shift > 32 {
		shift = 32
	}
	m.chargeBackoff(retryBackoff << shift)
	if err := m.settleControllers(); err != nil {
		return nil, nil, err
	}
	p, c := s.retryTarget(attempt)
	m.retries.Add(1)
	if m.obs != nil {
		m.obs.retries.Inc()
	}
	if p != s.pool {
		m.reroutes.Add(1)
		if m.obs != nil {
			m.obs.reroutes.Inc()
		}
	}
	return p, c, nil
}

// exhausted wraps the final attempt's classified error in
// ErrRetriesExhausted.
func (s *Session) exhausted(lastErr error) error {
	return fmt.Errorf("%w after %d retries: %w", ErrRetriesExhausted, s.mesh.opts.RetryBudget, lastErr)
}

// Fetch dispatches a prebuilt request to the session's pool and
// returns status code and body length without retaining the response —
// the zero-allocation hot path. With a retry budget configured, a
// failed dispatch backs off on the mesh clock and re-routes to the
// next-ranked pool until the budget is spent (ErrRetriesExhausted).
func (s *Session) Fetch(req []byte) (code, bodyLen int, err error) {
	return dispatch(s, req, (*httpd.Client).Fetch)
}

// Get dispatches a GET for uri and returns status and body, with the
// same retry contract as Fetch.
func (s *Session) Get(uri string) (int, []byte, error) {
	return dispatch(s, uri, (*httpd.Client).Get)
}
