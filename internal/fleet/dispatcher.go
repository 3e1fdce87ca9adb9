package fleet

import (
	"time"

	"nvariant/internal/simnet"
)

// Dial retry tuning: a quarantined group's port refuses dials for the
// moment between its kill and its watcher pruning it from the pool, and
// a pool of one has nothing to serve from until the replacement is up.
// The dispatcher retries across the pool within this budget before
// failing the client connection.
const (
	dialRetryInterval = 200 * time.Microsecond
	dialRetryBudget   = 5 * time.Second
)

// acceptLoop accepts client connections on the front port and hands
// each to a proxy goroutine. It exits when the front listener closes.
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

// pickAndDial selects a group and opens a backend connection to it,
// retrying across the pool while groups are being replaced.
func (f *Fleet) pickAndDial() (*group, *simnet.Conn) {
	deadline := time.Now().Add(dialRetryBudget)
	for {
		if g := f.pick(); g != nil {
			conn, err := f.net.Dial(g.port)
			if err == nil {
				return g, conn
			}
			// The group's port refused: it is dying or just died; its
			// watcher will prune it. Fall through to retry.
		}
		if f.isClosed() || time.Now().After(deadline) {
			return nil, nil
		}
		time.Sleep(dialRetryInterval)
	}
}

// serve proxies one client connection to one backend group. The client
// is oblivious to pool membership (the paper's monitor already hides
// the variant count; the dispatcher additionally hides the group). If
// the monitor kills the group mid-exchange, both sides are torn down,
// so the client observes exactly what a direct attacker observes: the
// connection drops with no response.
func (f *Fleet) serve(client *simnet.Conn) {
	defer f.wg.Done()
	defer func() { _ = client.Close() }()

	g, backend := f.pickAndDial()
	if backend == nil {
		f.dispatchErrors.Add(1)
		if f.obs != nil {
			f.obs.dispatchErrors.Inc()
		}
		return
	}
	f.dispatched.Add(1)
	g.inflight.Add(1)
	g.served.Add(1)
	if f.obs != nil {
		// Mirrors of the internal counters as registered series; plain
		// atomic adds, so the instrumented dispatch path allocates
		// nothing extra.
		f.obs.dispatched.Inc()
		f.obs.inflight.Add(1)
		defer f.obs.inflight.Add(-1)
	}
	defer g.inflight.Add(-1)
	defer func() { _ = backend.Close() }()

	// No watchdog is needed for group death: the monitor's teardown
	// closes every accepted connection, and Listener.Close drops
	// backlog-queued ones, so both pumps unblock on a kill.

	// Request pump: client → backend. Closing the backend on client EOF
	// propagates end-of-stream to the server (simnet has no half-close,
	// but the response — if any — has already crossed by the time a
	// well-behaved client closes). Both pumps hand each message's
	// pooled buffer straight through with SendOwned — the proxy never
	// copies a payload; ownership passes from one wire to the other.
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer func() { _ = backend.Close() }()
		for {
			msg, err := client.Recv()
			if err != nil || msg == nil {
				return
			}
			if backend.SendOwned(msg) != nil {
				simnet.PutBuffer(msg)
				return
			}
		}
	}()

	// Response pump: backend → client, inline.
	for {
		msg, err := backend.Recv()
		if err != nil || msg == nil {
			return
		}
		if client.SendOwned(msg) != nil {
			simnet.PutBuffer(msg)
			return
		}
	}
}
