package fleet

import (
	"time"

	"nvariant/internal/simnet"
)

// Handoff retry tuning: a quarantined group's port refuses handoffs
// for the moment between its kill and its watcher pruning it from the
// pool, and a pool of one has nothing to serve from until the
// replacement is up. The dispatcher retries across the pool within
// this budget before failing the client connection.
const (
	handRetryInterval = 200 * time.Microsecond
	handRetryBudget   = 5 * time.Second
)

// acceptLoop accepts client connections on the front port and hands
// each to a dispatch goroutine. It exits when the front listener
// closes.
func (f *Fleet) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.front.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.serve(conn)
	}
}

// pick chooses the next healthy group round-robin, or nil when the
// pool is momentarily empty. It reads the lock-free published
// snapshot — no mutex on the per-connection hot path, so dispatch
// never stalls behind spawn/quarantine bookkeeping (which holds f.mu
// while rebuilding groups).
func (f *Fleet) pick() *group {
	pool := *f.pool.Load()
	if len(pool) == 0 {
		return nil
	}
	return pool[int(f.rr.Add(1)-1)%len(pool)]
}

// pickAndHand selects a group and queues conn on its listener, retrying
// across the pool while groups are being replaced. The returned group
// has conn counted in flight; the caller releases it once the exchange
// ends. nil means no group took conn within the budget, and the caller
// still owns it.
func (f *Fleet) pickAndHand(conn *simnet.Conn) *group {
	deadline := time.Now().Add(handRetryBudget)
	for {
		if g := f.pick(); g != nil {
			// Count before handing and re-check the drain flag after:
			// retire sets the flag before it reads inflight, so either
			// the drain sees this connection or this sees the drain. A
			// group picked from a stale snapshot can be draining.
			g.inflight.Add(1)
			if !g.draining.Load() && f.net.Handoff(g.port, conn) == nil {
				return g
			}
			// Draining, or the port refused: the group is retiring,
			// dying or just died, and its watcher will prune it.
			g.release()
		}
		if f.isClosed() || time.Now().After(deadline) {
			return nil
		}
		time.Sleep(handRetryInterval)
	}
}

// serve hands one client connection to one backend group and waits
// for the exchange to end. The group's monitor accepts the connection
// itself, so the client talks to the group over a single hop and stays
// oblivious to pool membership (the paper's monitor already hides the
// variant count; the dispatcher additionally hides the group). Every
// way an exchange ends closes the handed-off endpoint: the group
// responds and closes it; the client closes and the server, seeing end
// of stream, closes it; the monitor kills the group and closes all its
// descriptors; the group's listener closes with it still queued; or
// on the group's drop signal (drain budget spent, fleet stopping)
// serve ends the group's input, and the group, reading end of stream
// once it has served what it already read, closes it. A killed group therefore drops the connection
// with no response, as a direct attacker observes.
func (f *Fleet) serve(client *simnet.Conn) {
	defer f.wg.Done()

	g := f.pickAndHand(client)
	if g == nil {
		_ = client.Close()
		f.dispatchErrors.Add(1)
		if f.obs != nil {
			f.obs.dispatchErrors.Inc()
		}
		return
	}
	f.dispatched.Add(1)
	g.served.Add(1)
	if f.obs != nil {
		// Mirrors of the internal counters as registered series; plain
		// atomic adds, so the instrumented dispatch path allocates
		// nothing extra.
		f.obs.dispatched.Inc()
		f.obs.inflight.Add(1)
		defer f.obs.inflight.Add(-1)
	}
	defer g.release()
	select {
	case <-client.Done():
	case <-g.drop:
		client.CloseRead()
	}
}
