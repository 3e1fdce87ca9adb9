package mesh

// Pool health scoring. Each pool carries a fixed-point penalty score
// fed by its fault events — admission sheds, failed dispatches,
// quarantine windows, quorum-lost kills — and decayed on the mesh's
// dispatch-tick clock: the score halves every healthHalfLife ticks.
// Reading the score adds a live term for groups currently degraded to
// a K-of-N quorum, so a pool absorbing evictions scores sick even
// between discrete events.
//
// A pool at or above healthSickAt is sick: the rendezvous router
// demotes it (new sessions fall through to the best-ranked healthy
// pool), retries rank it last, and rotation skips it (draining a pool
// that is already absorbing faults would trade the moving target for
// an outage).
//
// Everything here is wall-clock-free: scores are pure functions of
// the event sequence and the tick clock, so seeded campaigns with
// serialized traffic replay health decisions byte-identically.

// Event penalty weights. A shed is mild (load, not damage); a failed
// dispatch means a request died; a quarantine window means the pool
// lost a group to an alarm mid-flight; a quorum-lost kill is the
// severest single event short of losing the pool.
const (
	healthShedCost       = 1
	healthErrCost        = 4
	healthQuarantineCost = 8
	healthQuorumCost     = 12
	// healthDegradedCost weighs each currently degraded (quorum-serving)
	// group in the live term of the score.
	healthDegradedCost = 4

	// healthHalfLife is the dispatch-tick half-life of the stored
	// penalty score.
	healthHalfLife uint64 = 64
	// healthSickAt is the decayed score at which a pool counts as sick.
	healthSickAt int64 = 16
)

// healthDecay folds elapsed clock time into the stored score: every
// full healthHalfLife window since the last decay halves it. Lazy and
// lock-free — whoever reads or bumps the score first settles the
// decay, and the CAS on healthTick elects exactly one settler per
// window.
func (p *pool) healthDecay(m *Mesh) {
	const hl = healthHalfLife
	now := m.ticks.Load()
	for {
		last := p.healthTick.Load()
		if now < last+hl {
			return
		}
		steps := (now - last) / hl
		if !p.healthTick.CompareAndSwap(last, last+steps*hl) {
			continue
		}
		if steps > 62 {
			steps = 62 // score is already zero for any practical value
		}
		for {
			h := p.health.Load()
			if p.health.CompareAndSwap(h, h>>steps) {
				return
			}
		}
	}
}

// healthAdd charges one fault event to the pool's score.
func (p *pool) healthAdd(m *Mesh, cost int64) {
	p.healthDecay(m)
	p.health.Add(cost)
}

// healthScore returns the pool's current sickness score: the decayed
// event penalty plus the live degraded-group term.
func (p *pool) healthScore(m *Mesh) int64 {
	p.healthDecay(m)
	return p.health.Load() + int64(p.fleet.DegradedCount())*healthDegradedCost
}

// sick reports whether the pool's score has crossed the demotion
// threshold.
func (p *pool) sick(m *Mesh) bool { return p.healthScore(m) >= healthSickAt }

// bestHealthyPool returns the highest-rendezvous-weight pool for kh
// that is not currently sick, or nil when every pool is sick (the
// caller keeps its original choice — demotion must never make the
// mesh refuse service outright).
func (m *Mesh) bestHealthyPool(kh uint64) *pool {
	var best *pool
	var bestW uint64
	for i, salt := range m.salts {
		p := m.pools[i]
		if p.sick(m) {
			continue
		}
		if w := splitmix64(kh ^ salt); best == nil || w > bestW {
			best, bestW = p, w
		}
	}
	return best
}
