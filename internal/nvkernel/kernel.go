// Package nvkernel implements the N-variant monitor "kernel" of the
// paper (§3.1): it launches N variants of a program, synchronizes them
// at system-call boundaries, checks that every rendezvous is made with
// equivalent arguments (after per-variant inverse reexpression of
// UID-typed data), performs input system calls once (replicating
// results to all variants), performs output system calls once (after
// cross-checking payloads), supports unshared files with per-variant
// contents (§3.4), and implements the detection system calls of
// Table 2. Any divergence raises an Alarm, which in the paper's threat
// model is a detected attack.
//
// The paper's implementation is a modified Linux kernel monitoring a
// prefork Apache *process group*; this is a user-space simulation of
// exactly the syscall-boundary contract the paper states, with
// variants as goroutines over simulated address spaces (see DESIGN.md,
// substitutions table). As in the paper, the monitor runs in the
// syscall path: each rendezvous is a barrier, and the variant whose
// arrival completes it checks and executes the call on its own
// goroutine. A group may hold W ≥ 1 worker lanes (the prefork
// workers): each lane is an independent N-variant rendezvous with its
// own barrier, stall watchdog and scratch, while the descriptor table,
// credentials, virtual time, captured output and the alarm are
// group-wide — and an alarm in any lane kills the entire group,
// preserving the paper's detection contract.
package nvkernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Result is the outcome of running an N-variant process group.
type Result struct {
	// Clean reports an orderly exit with no alarm (every worker lane
	// exited).
	Clean bool
	// Status is the primary lane's exit status (valid when Clean).
	Status word.Word
	// Alarm is non-nil when the monitor detected divergence.
	Alarm *Alarm
	// Stdout captures bytes written to fd 1 (written once, as with any
	// output syscall).
	Stdout []byte
	// Stderr captures bytes written to fd 2.
	Stderr []byte
	// Rendezvous counts monitored syscall rendezvous across all lanes.
	Rendezvous int
	// Workers is the number of worker lanes the group ran (1 unless the
	// program preforked).
	Workers int
	// VTime is the group's virtual clock at teardown — the
	// deterministic in-matrix timestamp audit consumers pair with the
	// out-of-matrix wall clock.
	VTime uint32
	// VariantErrs holds each variant's terminal error (nil for clean
	// returns and monitor kills), lane-major: lane 0's variants first.
	VariantErrs []error
	// Evictions records the quorum machinery's degraded-mode history:
	// one entry per variant fault absorbed by eviction, in eviction
	// order. Empty unless WithQuorum was set and a fault occurred.
	Evictions []Eviction
}

// Detected reports whether the run ended in an alarm.
func (r *Result) Detected() bool { return r.Alarm != nil }

// callMsg is one variant's arrival at a syscall rendezvous.
type callMsg struct {
	call  sys.Call
	reply chan sys.Reply
}

// variantRT is the runtime state of one variant of one lane. Each
// variant owns one preallocated mailbox (msg plus its long-lived
// buffered reply channel), reused for every syscall: a variant has at
// most one call in flight, and it is answered exactly once per
// arrival, so nothing is ever allocated per rendezvous.
type variantRT struct {
	id   int
	done chan struct{}
	err  error
	mem  *vmem.Space
	msg  callMsg
}

// Run executes progs (one per variant) as an N-variant process group
// under the monitor. len(progs) is the group size: 1 reproduces the
// paper's "unmodified kernel" baseline configurations, 2 the deployed
// systems. A program that calls Context.Prefork widens the group into
// W concurrent worker lanes (each lane runs all N variants).
func Run(world *vos.World, net *simnet.Network, progs []sys.Program, opts ...Option) (*Result, error) {
	s, err := newSystem(world, net, progs, opts)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// newSystem validates the configuration and builds the group-wide
// kernel state; no variant runs until run.
func newSystem(world *vos.World, net *simnet.Network, progs []sys.Program, opts []Option) (*system, error) {
	n := len(progs)
	if n == 0 {
		return nil, errors.New("nvkernel: no variants")
	}
	cfg := defaultConfig(n)
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.UIDFuncs) != n {
		return nil, fmt.Errorf("nvkernel: %d UID funcs for %d variants", len(cfg.UIDFuncs), n)
	}
	if cfg.Spec != nil && cfg.Spec.N() != n {
		// A width mismatch would deploy a partition layout and record a
		// configuration different from what the spec was validated for.
		return nil, fmt.Errorf("nvkernel: spec describes %d variants, got %d programs", cfg.Spec.N(), n)
	}

	if n > 64 {
		// Barrier arrivals and the live set are uint64 masks; wider
		// groups would need a different representation, and nothing
		// near that width exists.
		return nil, fmt.Errorf("nvkernel: at most 64 variants per group, got %d", n)
	}

	// Address canonicalization width: the two-variant construction
	// clears the single high (partition) bit; N > 2 partitioned groups
	// clear the ⌈log₂N⌉ slot-index bits instead.
	addrBits := 1
	if cfg.AddressPartition && n > 2 {
		addrBits = vmem.PartitionBits(n)
	}

	// Per-variant partition slots, computed once and reused by every
	// lane (worker lanes get fresh address spaces with the same
	// per-variant layout, like forked processes of the same variant).
	parts := make([]vmem.Partition, n)
	for i := 0; i < n; i++ {
		parts[i] = vmem.PartitionNone
		if cfg.AddressPartition {
			var err error
			parts[i], err = vmem.PartitionSlot(i, n)
			if err != nil {
				return nil, fmt.Errorf("nvkernel: partition variant %d of %d: %w", i, n, err)
			}
		}
	}

	return &system{
		world:    world,
		net:      net,
		cfg:      cfg,
		n:        n,
		progs:    progs,
		parts:    parts,
		addrBits: addrBits,
		// killed is closed on the first alarm: the group-wide kill
		// that retires every lane.
		killed: make(chan struct{}),
	}, nil
}

// run executes the group to completion: the primary lane's variants
// (worker lanes join through Prefork) until every lane has retired,
// then a bounded wait for the variants to unwind.
func (s *system) run() *Result {
	s.launch(0, s.cfg.Cred, func(i int, ctx *sys.Context) error { return s.progs[i].Run(ctx) })
	s.running.Wait()

	// Every lane has retired, so the lane roster is final and any later
	// syscall is answered Killed at entry. A variant that spins without
	// syscalls cannot be preempted (goroutines are not killable the way
	// the paper's kernel SIGKILLs a process), so the wait for the
	// variants to return is bounded by a grace period; stragglers are
	// reported as such.
	grace := time.NewTimer(s.cfg.Timeout)
	defer grace.Stop()
wait:
	for _, l := range s.lanes {
		for _, v := range l.variants {
			select {
			case <-v.done:
			case <-grace.C:
				break wait
			}
		}
	}

	res := &Result{
		Clean:       s.alarm == nil && s.exitedLanes == len(s.lanes),
		Status:      s.status,
		Alarm:       s.alarm,
		Stdout:      s.stdout,
		Stderr:      s.stderr,
		Workers:     len(s.lanes),
		VTime:       s.vtime.Load(),
		VariantErrs: make([]error, 0, s.n*len(s.lanes)),
	}
	s.mu.Lock()
	res.Evictions = append(res.Evictions, s.evictions...)
	s.mu.Unlock()
	for _, l := range s.lanes {
		res.Rendezvous += l.rendezvous
		for _, v := range l.variants {
			select {
			case <-v.done:
				res.VariantErrs = append(res.VariantErrs, v.err)
			default:
				res.VariantErrs = append(res.VariantErrs, errStillRunning)
			}
		}
	}
	return res
}

// errStillRunning marks a variant that had not terminated when the
// post-alarm grace period expired.
var errStillRunning = errors.New("nvkernel: variant still running at shutdown")

// system is the group-wide kernel state shared by every worker lane.
// Ownership map (the "Concurrency model" section of DESIGN.md):
//
//   - Per lane, held by the lane's current executor: the variant
//     mailboxes of the round in flight and the rendezvous scratch
//     (msgs/canon/ioBuf/pin, ref, cred) — never locked, because
//     at most one goroutine executes a lane's round at a time (hold),
//     which is what keeps the steady-state path allocation- and
//     contention-free. The barrier itself (arrivals, live set,
//     watchdog) is under the lane's own mutex.
//   - Group-wide under mu: the descriptor table (with the filesystem
//     it reaches — vos.FS is single-threaded by contract), the lane
//     roster, captured stdout/stderr, the alarm slot, evictions and
//     exit bookkeeping. mu is never held across a blocking operation:
//     lanes look an entry up under mu, then block on the simnet object
//     (itself thread-safe) with mu released, so Accept is the only
//     place concurrent lanes serialize for more than a table probe —
//     exactly prefork Apache's accept contention. A lane's mutex may be
//     held while taking mu, never the reverse.
//   - Group-wide lock-free: virtual time and the eviction mask
//     (atomics), the killed channel (close-once).
type system struct {
	world    *vos.World
	net      *simnet.Network
	cfg      Config
	n        int
	progs    []sys.Program
	parts    []vmem.Partition
	addrBits int

	mu          sync.Mutex
	files       []fileEntry
	stdout      []byte
	stderr      []byte
	alarm       *Alarm
	lanes       []*lane
	exitedLanes int
	status      word.Word
	preforked   bool

	// vtime is the group's virtual clock: it ticks once per completed
	// rendezvous across all lanes, so every audit stamp (Alarm.VTime,
	// Result.VTime) and Time syscall reply is a position on the same
	// monotonic, wall-clock-free timeline.
	vtime atomic.Uint32

	// evicted is the group-wide live-set mask: bit i set means variant
	// i has been evicted by the quorum machinery. Lanes copy it into
	// their dead mask at every arrival (one atomic load; no lock), so
	// the steady-state path allocates nothing. Writes happen under mu
	// in tryEvict; evictions (under mu) is the ordered record Result
	// reports.
	evicted   atomic.Uint64
	evictions []Eviction

	killed   chan struct{}
	killOnce sync.Once
	// running counts the lanes that have not yet retired.
	running sync.WaitGroup
}

// invokerFor builds the syscall invoker of one variant of one lane:
// the rendezvous barrier. The variant deposits its call; the arrival
// that completes the live set executes the rendezvous on its own
// goroutine, and every earlier arrival parks on its reply channel
// until the executor answers it. At N = 1 a syscall is a direct call.
func (s *system) invokerFor(l *lane, v *variantRT) sys.Invoker {
	hook := s.cfg.Faults
	bit := uint64(1) << uint(v.id)
	return func(call sys.Call) sys.Reply {
		if hook != nil {
			if stall, crash := hook.PreSyscall(l.id, v.id, call.Num); crash {
				// The variant dies before reaching the rendezvous: its
				// goroutine unwinds via ErrCrashed and its departure is
				// observed as a variant fault.
				return sys.Reply{Crashed: true}
			} else if stall > 0 {
				time.Sleep(stall)
			}
		}
		v.msg.call = call
		l.mu.Lock()
		l.syncLive()
		if l.retired || l.dead&bit != 0 {
			// The lane has retired (exit, alarm, group kill) or this
			// variant was evicted: Killed unwinds the goroutine.
			l.mu.Unlock()
			return sys.Reply{Killed: true}
		}
		l.arrived |= bit
		switch {
		case l.arrived == l.all&^l.dead && !l.held():
			l.claim()
			l.mu.Unlock()
			if l.runRound() {
				l.settle(false)
			}
		case l.departed&^l.dead != 0:
			// A live variant has died: settle decides whether the
			// barrier is waiting on it.
			l.mu.Unlock()
			l.settle(false)
		default:
			l.arm()
			l.mu.Unlock()
		}
		return <-v.msg.reply
	}
}

// lane is one worker lane: an independent N-variant rendezvous with
// its own barrier and scratch, sharing the system state.
type lane struct {
	sys      *system
	id       int
	variants []*variantRT

	// Executor state, owned by the goroutine holding the lane (see
	// hold) and never locked.
	//
	// cred is the lane's credential set — per lane, exactly as fork
	// gives each prefork worker its own copy of the parent's
	// credentials. A lane changing its identity (httpd's per-request
	// seteuid dance) must never race a sibling lane's permission checks
	// — with one group-wide cred, a lane's between-requests
	// re-escalation to root would let a concurrent sibling open a
	// root-only document and leak it.
	cred vos.Cred
	// msgs holds the round's arrivals (nil for evicted variants) and
	// ref the lowest live index — the variant every cross-check
	// compares against (variant 0 until it is evicted, so unanimous
	// groups behave and report byte-identically). The rest is scratch
	// reused across rounds so the steady state allocates nothing.
	msgs   []*callMsg
	slots  uint64 // the variants msgs holds
	ref    int
	canon  []word.Word
	ioBuf  []byte // write payloads (reads copy from the file's view; sends gather into pooled network buffers)
	pin    []*vos.OpenFile
	exited bool

	// Barrier state, under mu. Variant masks: all has a bit per
	// variant, dead the evicted ones (synced from the group mask),
	// arrived the live variants parked at the round being filled,
	// departed those whose goroutine has returned. retired ends the
	// lane; finished records that run was told.
	mu         sync.Mutex
	all        uint64
	dead       uint64
	arrived    uint64
	departed   uint64
	hold       uint32 // holdBusy, holdWanted
	retired    bool
	finished   bool
	rendezvous int

	// The stall watchdog: armed while something waits at the barrier,
	// and amortized — set once, then checked against rendezvous
	// progress when it fires instead of being reset every round. A
	// stall is therefore detected after between one and two Timeouts
	// (never before Timeout), with no timer traffic on the hot path.
	watch   *time.Timer
	armed   bool
	armedAt int // rendezvous count when the watchdog was armed
}

// launch registers lane id, starting from cred, and starts its
// variants, variant i running body(i, ctx). A lane registered after
// the group kill is born retired, so the kill's sweep of the roster
// can never miss a lane.
func (s *system) launch(id int, cred vos.Cred, body func(int, *sys.Context) error) {
	l := &lane{sys: s, id: id, cred: cred, all: ^uint64(0) >> uint(64-s.n), msgs: make([]*callMsg, s.n)}
	for i := 0; i < s.n; i++ {
		v := &variantRT{id: i, done: make(chan struct{}), mem: vmem.New(s.parts[i])}
		v.msg.reply = make(chan sys.Reply, 1)
		l.variants = append(l.variants, v)
	}
	s.mu.Lock()
	s.lanes = append(s.lanes, l)
	l.dead = s.evicted.Load()
	if s.killedNow() {
		l.retired, l.finished = true, true
	} else {
		s.running.Add(1)
	}
	s.mu.Unlock()
	for i, v := range l.variants {
		ctx := sys.NewContext(i, s.n, v.mem, s.invokerFor(l, v))
		ctx.Worker = id
		go func() {
			defer l.depart(v)
			err := body(i, ctx)
			if err == nil && !ctx.Exited() {
				err = ctx.Exit(0)
			}
			if err != nil && !errors.Is(err, sys.ErrKilled) {
				v.err = err
			}
		}()
	}
}

// depart records the return of variant v's goroutine: while the lane
// runs, a departed live variant is a variant fault once the barrier
// waits on it, which settle decides.
func (l *lane) depart(v *variantRT) {
	close(v.done)
	l.mu.Lock()
	l.departed |= 1 << uint(v.id)
	retired := l.retired
	l.mu.Unlock()
	if !retired {
		l.settle(false)
	}
}

// claim takes the completed barrier for execution by the caller: the
// arrivals become the round's msgs and the barrier reopens for the
// next round. Caller holds mu.
func (l *lane) claim() {
	if l.arrived != l.slots {
		// The live set changed since the last round: rebuild the slots.
		for i, v := range l.variants {
			l.msgs[i] = nil
			if l.arrived&(1<<uint(i)) != 0 {
				l.msgs[i] = &v.msg
			}
		}
		l.slots = l.arrived
		l.ref = bits.TrailingZeros64(l.arrived)
	}
	l.arrived = 0
	// A plain store: nothing holds the lane (held said so under mu), so
	// no goroutine touches hold outside mu until this one releases it.
	l.hold = holdBusy
	l.rendezvous++
	l.sys.vtime.Add(1)
}

// runRound executes the claimed round on the calling goroutine and
// releases the lane; it reports whether settle has work left.
func (l *lane) runRound() bool {
	if m := l.sys.cfg.Metrics; m != nil {
		// Timed rendezvous: two monotonic clock reads and a few atomic
		// adds — the path stays allocation-free (proven by
		// TestInstrumentedRendezvousZeroAlloc and the bench gate).
		start := time.Since(clockBase)
		num := l.msgs[l.ref].call.Num
		stop := l.dispatch(l.msgs)
		m.observeRendezvous(num, time.Since(clockBase)-start)
		return l.release(stop)
	}
	return l.release(l.dispatch(l.msgs))
}

// Hold states of lane.hold.
const (
	holdBusy   = 1 << iota // a goroutine holds the lane
	holdWanted             // another found it held and left work for settle
)

// held reports whether a goroutine holds the lane; if one does, it is
// told to settle when it lets go. Caller holds mu.
func (l *lane) held() bool {
	if atomic.LoadUint32(&l.hold) == 0 {
		return false
	}
	if atomic.OrUint32(&l.hold, holdWanted)&holdBusy != 0 {
		return true
	}
	// Released in between: only the stray flag is left, and under mu
	// nobody else writes it.
	atomic.StoreUint32(&l.hold, 0)
	return false
}

// release ends the caller's hold on the lane, retiring it when stop is
// set: in the steady state one compare-and-swap and no lock. It
// reports whether another goroutine found the lane held meanwhile and
// left work for settle (a completed barrier, a departure, an eviction,
// a kill).
func (l *lane) release(stop bool) bool {
	if !stop && atomic.CompareAndSwapUint32(&l.hold, holdBusy, 0) {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	atomic.StoreUint32(&l.hold, 0)
	if stop || l.retired {
		l.retire()
		return false
	}
	return true
}

// settle moves the barrier forward off the hot path. It executes a
// round that completed while the lane was held or through an eviction,
// and turns the lowest live variant missing from the barrier — the one
// an index-order gather would wait on — into an eviction or an alarm
// when it has departed or, on a watchdog expiry with no progress since
// the watchdog was armed, when it is late.
func (l *lane) settle(watchdog bool) {
	s := l.sys
	for {
		l.mu.Lock()
		l.syncLive()
		live := l.all &^ l.dead
		stalled := watchdog && l.rendezvous == l.armedAt
		if watchdog {
			watchdog, l.armed = false, false
		}
		if held := l.held(); held || l.retired {
			if !held {
				l.retire() // tells run, if nothing has yet
			}
			l.arm()
			l.mu.Unlock()
			return
		}
		if l.arrived == live {
			l.claim()
			l.mu.Unlock()
			if !l.runRound() {
				return
			}
			continue
		}
		i := bits.TrailingZeros64(live &^ l.arrived)
		kind, detail, reason := FaultCrash, "variant terminated unexpectedly", ReasonVariantFault
		switch {
		case l.departed&(1<<uint(i)) != 0:
			if err := l.variants[i].err; err != nil {
				detail = err.Error()
			}
		case stalled && (l.arrived != 0 || l.departed&live != 0):
			kind, reason = FaultStall, ReasonTimeout
			detail = fmt.Sprintf("variant %d did not reach rendezvous within %v", i, s.cfg.Timeout)
		default:
			l.arm()
			l.mu.Unlock()
			return
		}
		ev, ok := l.tryEvict(i, kind, detail)
		var alarm *Alarm
		if !ok {
			if s.cfg.Quorum > 0 {
				reason = ReasonQuorumLost
			}
			alarm = &Alarm{Reason: reason, Syscall: "(none)", Seq: l.rendezvous, Variant: i, Detail: detail}
			l.retired = true // no round may complete behind the alarm
		}
		// Hold the lane while the fault is acted on, so run cannot
		// return before the alarm or the eviction hook lands.
		l.hold = holdBusy
		l.mu.Unlock()
		if alarm != nil {
			l.raise(alarm, nil)
		} else if ev != nil {
			l.announce(ev)
		}
		l.release(false)
	}
}

// arm starts the stall watchdog for a fresh Timeout window if something
// waits at the barrier and it is not already running. Caller holds mu.
func (l *lane) arm() {
	if l.armed || l.retired || l.arrived == 0 && l.departed&^l.dead == 0 {
		return
	}
	l.armed, l.armedAt = true, l.rendezvous
	if l.watch == nil {
		l.watch = time.AfterFunc(l.sys.cfg.Timeout, func() { l.settle(true) })
	} else {
		l.watch.Reset(l.sys.cfg.Timeout)
	}
}

// syncLive adopts the group-wide eviction mask: one atomic load per
// arrival, and parked arrivals of newly evicted variants are answered
// Killed. Caller holds mu.
func (l *lane) syncLive() {
	if g := l.sys.evicted.Load(); g != l.dead {
		l.dead = g
		l.answer(l.arrived&g, sys.Reply{Killed: true})
		l.arrived &^= g
	}
}

// answer sends r to every variant in mask, each parked at the barrier.
func (l *lane) answer(mask uint64, r sys.Reply) {
	for ; mask != 0; mask &= mask - 1 {
		l.variants[bits.TrailingZeros64(mask)].msg.reply <- r
	}
}

// retire ends the lane: parked arrivals are answered Killed, later ones
// are refused at entry, and run is told once no goroutine holds the
// lane. Caller holds mu.
func (l *lane) retire() {
	l.retired = true
	l.answer(l.arrived, sys.Reply{Killed: true})
	l.arrived = 0
	if l.watch != nil {
		l.watch.Stop()
	}
	if !l.finished && !l.held() {
		l.finished = true
		l.sys.running.Done()
	}
}

// tryEvict attempts to absorb a fault of variant by eviction: with no
// alarm pending and at least K variants live after dropping it, the
// variant is evicted group-wide (audit entry appended) and the lane
// adopts the new live set. A unanimous group runs with K = N, so its
// faults always fail here and kill the group. The result is nil and
// true when a sibling lane evicted the variant first. Caller holds mu.
func (l *lane) tryEvict(variant int, kind FaultKind, detail string) (*Eviction, bool) {
	s := l.sys
	k := s.cfg.Quorum
	if k <= 0 {
		k = s.n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.evicted.Load()
	if g&(1<<uint(variant)) != 0 {
		l.syncLive()
		return nil, true
	}
	live := s.n - bits.OnesCount64(g) - 1
	if s.alarm != nil || live < k {
		// An alarm outranks degraded mode: the group is dying anyway.
		return nil, false
	}
	s.evicted.Store(g | 1<<uint(variant))
	ev := Eviction{Variant: variant, Worker: l.id, Kind: kind, Seq: l.rendezvous, VTime: s.vtime.Load(), Live: live, Detail: detail}
	s.evictions = append(s.evictions, ev)
	l.syncLive()
	return &ev, true
}

// announce publishes an eviction: every sibling lane settles its
// barrier against the new live set (one may have been waiting only on
// the evicted variant), then the metrics and the OnEvict hook see it.
func (l *lane) announce(ev *Eviction) {
	s := l.sys
	s.mu.Lock()
	lanes := s.lanes
	s.mu.Unlock()
	for _, other := range lanes {
		if other != l {
			// A fresh goroutine: a completed round executes there, and it
			// may block (accept) where this caller must not.
			go other.settle(false)
		}
	}
	if m := s.cfg.Metrics; m != nil {
		m.observeEviction(ev.Kind)
	}
	if fn := s.cfg.OnEvict; fn != nil {
		fn(*ev)
	}
}

// raise records the alarm (first alarm wins group-wide), kills the
// pending variants, and tears the whole group down — as the paper's
// kernel SIGKILLs the process group: every descriptor is released,
// which unblocks sibling lanes parked in accept/recv, and every lane
// retires. Closing connections is what a remote attacker observes: the
// connection drops with no response.
func (l *lane) raise(a *Alarm, pending []*callMsg) {
	s := l.sys
	a.Worker = l.id
	// Stamped unconditionally — with or without metrics attached the
	// run behaves identically, which is what keeps seeded campaign
	// output byte-identical when instrumentation is enabled.
	a.At = time.Now()
	a.VTime = s.vtime.Load()
	won := false
	s.mu.Lock()
	if s.alarm == nil {
		s.alarm = a
		won = true
	}
	s.mu.Unlock()
	for _, m := range pending {
		if m != nil {
			m.reply <- sys.Reply{Killed: true}
		}
	}
	s.kill()
	if won {
		if m := s.cfg.Metrics; m != nil {
			m.observeAlarm(a.Reason, time.Since(a.At))
		}
	}
}

// kill signals the group-wide teardown, releases every descriptor and
// retires every lane.
func (s *system) kill() {
	s.killOnce.Do(func() { close(s.killed) })
	s.mu.Lock()
	s.closeAllLocked()
	lanes := s.lanes
	s.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		l.retire()
		l.mu.Unlock()
	}
}

// killedNow reports whether the group kill has been signalled.
func (s *system) killedNow() bool {
	select {
	case <-s.killed:
		return true
	default:
		return false
	}
}

// dispatch checks rendezvous equivalence and executes the syscall.
// It returns true when the lane should retire. Slots of
// evicted variants are nil (degraded mode); every cross-check compares
// the live variants against the reference variant l.ref.
func (l *lane) dispatch(msgs []*callMsg) bool {
	s := l.sys
	seq := l.rendezvous - 1
	ref := l.ref
	num := msgs[ref].call.Num
	spec, ok := sys.SpecFor(num)
	if !ok {
		l.raise(&Alarm{
			Reason: ReasonSyscallMismatch, Syscall: "unknown", Seq: seq, Variant: ref,
			Detail: fmt.Sprintf("unknown syscall number %d", num),
		}, msgs)
		return true
	}

	// All (live) variants must make the same system call (§3.1).
	for i := 0; i < s.n; i++ {
		if i == ref || msgs[i] == nil {
			continue
		}
		if msgs[i].call.Num != num {
			l.raise(&Alarm{
				Reason:  ReasonSyscallMismatch,
				Syscall: spec.Name,
				Seq:     seq,
				Variant: i,
				Detail: fmt.Sprintf("variant %d at %s, variant %d at %s",
					ref, num, i, msgs[i].call.Num),
			}, msgs)
			return true
		}
	}

	// I/O on unshared files is per-variant by design (§3.4): each
	// variant reads or writes its own diversified file, so buffer
	// addresses and lengths may legitimately differ. Only the file
	// descriptor is required to agree; everything else is handled
	// per variant by the executor.
	if num == sys.Read || num == sys.Write {
		if alarm := l.checkArgCounts(spec, msgs, seq); alarm != nil {
			l.raise(alarm, msgs)
			return true
		}
		fd0 := msgs[ref].call.Args[0]
		s.mu.Lock()
		idx, err := s.slotFor(fd0)
		unsharedFile := err == nil && s.files[idx].kind == kindFile && !s.files[idx].shared
		s.mu.Unlock()
		if unsharedFile {
			for i := 0; i < s.n; i++ {
				if i == ref || msgs[i] == nil {
					continue
				}
				if msgs[i].call.Args[0] != fd0 {
					l.raise(&Alarm{
						Reason:  ReasonArgDivergence,
						Syscall: spec.Name,
						Seq:     seq,
						Variant: i,
						Detail:  fmt.Sprintf("fd %d differs from variant %d's %d", msgs[i].call.Args[0], ref, fd0),
					}, msgs)
					return true
				}
			}
			canon := l.canonBuf(3)
			canon[0], canon[1], canon[2] = fd0, 0, 0
			return l.execute(spec, num, canon, msgs, seq)
		}
	}

	// Canonicalize and compare arguments.
	canon, alarm := l.canonicalArgs(spec, msgs, seq)
	if alarm != nil {
		l.raise(alarm, msgs)
		return true
	}

	// Paths must be identical.
	if spec.TakesPath {
		p0 := msgs[ref].call.Data
		for i := 0; i < s.n; i++ {
			if i == ref || msgs[i] == nil {
				continue
			}
			if !bytes.Equal(msgs[i].call.Data, p0) {
				l.raise(&Alarm{
					Reason:  ReasonArgDivergence,
					Syscall: spec.Name,
					Seq:     seq,
					Variant: i,
					Detail:  fmt.Sprintf("path %q differs from variant %d's %q", msgs[i].call.Data, ref, p0),
				}, msgs)
				return true
			}
		}
	}

	return l.execute(spec, num, canon, msgs, seq)
}

// checkArgCounts validates each live variant's argument count against
// the spec.
func (l *lane) checkArgCounts(spec sys.Spec, msgs []*callMsg, seq int) *Alarm {
	nargs := len(spec.Args)
	for i, m := range msgs {
		if m == nil {
			continue
		}
		if len(m.call.Args) != nargs {
			return &Alarm{
				Reason:  ReasonArgDivergence,
				Syscall: spec.Name,
				Seq:     seq,
				Variant: i,
				Detail:  fmt.Sprintf("argument count %d, want %d", len(m.call.Args), nargs),
			}
		}
	}
	return nil
}

// canonBuf returns the lane's reusable canonical-argument scratch,
// sized to nargs. The returned slice is valid until the next
// rendezvous.
func (l *lane) canonBuf(nargs int) []word.Word {
	if cap(l.canon) < nargs {
		l.canon = make([]word.Word, nargs)
	}
	return l.canon[:nargs]
}

// canonicalArgs inverts/normalizes each live variant's arguments and
// checks cross-variant equivalence, returning the reference variant's
// canonical vector (borrowed scratch, valid until the next
// rendezvous). The reference is the lowest live index, so no non-nil
// slot precedes it.
func (l *lane) canonicalArgs(spec sys.Spec, msgs []*callMsg, seq int) ([]word.Word, *Alarm) {
	s := l.sys
	if alarm := l.checkArgCounts(spec, msgs, seq); alarm != nil {
		return nil, alarm
	}
	nargs := len(spec.Args)
	canon := l.canonBuf(nargs)
	ref := l.ref
	for j := 0; j < nargs; j++ {
		kind := spec.Args[j]
		var c0 word.Word
		for i := 0; i < s.n; i++ {
			if msgs[i] == nil {
				continue
			}
			raw := msgs[i].call.Args[j]
			var cv word.Word
			switch kind {
			case sys.ArgUID:
				inv, err := s.cfg.UIDFuncs[i].Invert(raw)
				if err != nil {
					return nil, &Alarm{
						Reason:  ReasonUIDDivergence,
						Syscall: spec.Name,
						Seq:     seq,
						Variant: i,
						Detail:  fmt.Sprintf("arg %d: invalid UID representation %s: %v", j, raw, err),
					}
				}
				cv = inv
			case sys.ArgAddr:
				cv = vmem.CanonicalIn(raw, s.addrBits)
			default:
				cv = raw
			}
			if i == ref {
				c0 = cv
				continue
			}
			if cv != c0 {
				reason := ReasonArgDivergence
				detail := fmt.Sprintf("arg %d: canonical %s differs from variant %d's %s", j, cv, ref, c0)
				switch kind {
				case sys.ArgUID:
					reason = ReasonUIDDivergence
					detail = fmt.Sprintf(
						"arg %d: UID decodes to %s in variant %d but %s in variant %d (raw %s vs %s)",
						j, cv.Decimal(), i, c0.Decimal(), ref, msgs[i].call.Args[j], msgs[ref].call.Args[j])
				case sys.ArgBool:
					reason = ReasonCondDivergence
					detail = fmt.Sprintf("condition value %d differs from variant %d's %d", cv, ref, c0)
				}
				return nil, &Alarm{
					Reason:  reason,
					Syscall: spec.Name,
					Seq:     seq,
					Variant: i,
					Detail:  detail,
				}
			}
		}
		canon[j] = c0
	}
	return canon, nil
}

// replyAll sends the same reply to every live variant (nil slots
// belong to evicted variants).
func replyAll(msgs []*callMsg, r sys.Reply) {
	for _, m := range msgs {
		if m != nil {
			m.reply <- r
		}
	}
}

// replyErrno sends an errno reply to every variant.
func replyErrno(msgs []*callMsg, err error) {
	if e, ok := vos.AsErrno(err); ok {
		replyAll(msgs, sys.Reply{Errno: e})
		return
	}
	replyAll(msgs, sys.Reply{Errno: vos.ErrInval})
}

// replyFail answers a failed blocking operation: with Killed when the
// group has been torn down (so variants unwind via ErrKilled instead
// of mistaking the teardown for an errno), with the errno otherwise.
// It returns true when the lane should retire.
func (l *lane) replyFail(msgs []*callMsg, err error) bool {
	if l.sys.killedNow() {
		replyAll(msgs, sys.Reply{Killed: true})
		return true
	}
	replyErrno(msgs, err)
	return false
}
