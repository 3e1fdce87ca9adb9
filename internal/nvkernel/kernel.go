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
// substitutions table). A group may hold W ≥ 1 worker lanes (the
// prefork workers): each lane is an independent N-variant rendezvous
// with its own monitor goroutine and per-lane scratch, while the
// descriptor table, credentials, virtual time, captured output and the
// alarm are group-wide — and an alarm in any lane kills the entire
// group, preserving the paper's detection contract.
package nvkernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/reexpress"
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
// most one call in flight, and its lane monitor sends exactly one reply
// per received message, so nothing is ever allocated per rendezvous.
type variantRT struct {
	id    int
	calls chan *callMsg
	done  chan struct{}
	// gone is closed when the variant is evicted group-wide (quorum
	// degraded mode): the lane monitor stops reading calls, and the
	// variant's invoker answers Killed instead of parking on a
	// rendezvous nobody gathers. Nil when the group runs without a
	// quorum — the hot path then carries no extra select case.
	gone chan struct{}
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
	if cfg.Spec != nil {
		if cfg.Spec.N() != n {
			// A width mismatch would deploy a partition layout and
			// record a configuration different from what the spec was
			// validated for.
			return nil, fmt.Errorf("nvkernel: spec describes %d variants, got %d programs", cfg.Spec.N(), n)
		}
		if cfg.Spec.HasLayer(reexpress.LayerInstructionTags) {
			// Variants here are native programs; instruction words only
			// exist on the tagged-ISA substrate. Refusing is better
			// than reporting a security layer as deployed while
			// ignoring it.
			return nil, fmt.Errorf("nvkernel: instruction-tag layers deploy on the isa substrate (isa.RunSpec), not under the monitor kernel")
		}
	}

	if cfg.Quorum > 0 && n > 64 {
		// The live set is a single uint64 mask; wider groups would need
		// a different representation, and nothing near that width exists.
		return nil, fmt.Errorf("nvkernel: quorum mode supports at most 64 variants, got %d", n)
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
		// stop is closed when the post-run drain retires: any variant
		// that reaches a syscall after that (e.g. a spinner that
		// outlived the grace period) is answered Killed right here
		// instead of parking forever on a rendezvous channel nobody
		// reads anymore.
		stop: make(chan struct{}),
		// killed is closed on the first alarm: the group-wide kill
		// fan-out that makes every sibling lane's monitor retire.
		killed: make(chan struct{}),
	}, nil
}

// run executes the group to completion: the primary lane's variants
// and monitor (worker lanes join through Prefork), then the post-run
// drain.
func (s *system) run() *Result {
	n, progs, cfg := s.n, s.progs, s.cfg
	primary := s.newLane(0)
	s.lanes = []*lane{primary}
	for i := 0; i < n; i++ {
		v := primary.variants[i]
		prog := progs[i]
		ctx := sys.NewContext(i, n, v.mem, s.invokerFor(primary, v))
		go func() {
			defer close(v.done)
			err := prog.Run(ctx)
			if err == nil && !ctx.Exited() {
				err = ctx.Exit(0)
			}
			if err != nil && !errors.Is(err, sys.ErrKilled) {
				v.err = err
			}
		}()
	}

	s.monitors.Add(1)
	go func() {
		defer s.monitors.Done()
		primary.monitor()
	}()
	s.monitors.Wait()

	// All lane monitors have retired, so the lane roster is final.
	// Drain: answer any straggler syscalls with Killed until every
	// variant goroutine has returned. A variant that spins without
	// syscalls cannot be preempted (goroutines are not killable the
	// way the paper's kernel SIGKILLs a process), so the wait is
	// bounded by a grace period; stragglers are reported as such. The
	// stop channel makes the drain goroutines and the all-done waiter
	// exit when the grace period fires; a straggler that reaches a
	// syscall after that is answered Killed by its own invoke (above),
	// so only a variant that never syscalls again can outlive Run.
	for _, l := range s.lanes {
		for _, v := range l.variants {
			go func(v *variantRT) {
				for {
					select {
					case m := <-v.calls:
						m.reply <- sys.Reply{Killed: true}
					case <-v.done:
						return
					case <-s.stop:
						return
					}
				}
			}(v)
		}
	}
	allDone := make(chan struct{})
	go func() {
		defer close(allDone)
		for _, l := range s.lanes {
			for _, v := range l.variants {
				select {
				case <-v.done:
				case <-s.stop:
					return
				}
			}
		}
	}()
	grace := time.NewTimer(cfg.Timeout)
	select {
	case <-allDone:
		grace.Stop()
	case <-grace.C:
	}
	close(s.stop)

	res := &Result{
		Clean:       s.alarm == nil && s.exitedLanes == len(s.lanes),
		Status:      s.status,
		Alarm:       s.alarm,
		Stdout:      s.stdout,
		Stderr:      s.stderr,
		Workers:     len(s.lanes),
		VTime:       s.vtime.Load(),
		VariantErrs: make([]error, 0, n*len(s.lanes)),
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
//   - Per lane, monitor-goroutine private: the variant mailboxes and
//     the rendezvous scratch (msgs/canon/ioBuf/cmpBuf) — never locked,
//     which is what keeps the steady-state loop allocation- and
//     contention-free.
//   - Group-wide under mu: the descriptor table (with the filesystem
//     it reaches — vos.FS is single-threaded by contract), credentials,
//     captured stdout/stderr, the alarm slot and exit bookkeeping. mu
//     is never held across a blocking operation: lanes look an entry
//     up under mu, then block on the simnet object (itself
//     thread-safe) with mu released, so Accept is the only place
//     concurrent lanes serialize for more than a table probe — exactly
//     prefork Apache's accept contention.
//   - Group-wide lock-free: virtual time and the scoreboard counter
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
	score atomic.Int64

	// evicted is the group-wide live-set mask: bit i set means variant
	// i has been evicted by the quorum machinery. Lanes copy it into
	// their private dead mask at the top of each gather round (one
	// atomic load; no lock), so the steady-state loop allocates nothing
	// and rebuilds no slices. Writes happen under mu in tryEvict;
	// evictions (under mu) is the ordered record Result reports.
	evicted   atomic.Uint64
	evictions []Eviction

	killed   chan struct{}
	killOnce sync.Once
	stop     chan struct{}
	monitors sync.WaitGroup
}

// invokerFor builds the syscall invoker of one variant of one lane.
// Quorum groups get an invoker with one extra select case (the
// variant's eviction channel); unanimous groups keep the two-case
// select byte-for-byte, so enabling the feature elsewhere costs the
// paper-contract hot path nothing.
func (s *system) invokerFor(l *lane, v *variantRT) sys.Invoker {
	hook := s.cfg.Faults
	if v.gone != nil {
		gone := v.gone
		return func(call sys.Call) sys.Reply {
			if hook != nil {
				if stall, crash := hook.PreSyscall(l.id, v.id, call.Num); crash {
					return sys.Reply{Crashed: true}
				} else if stall > 0 {
					time.Sleep(stall)
				}
			}
			v.msg.call = call
			select {
			case v.calls <- &v.msg:
				return <-v.msg.reply
			case <-gone:
				// Evicted: no monitor gathers this variant anymore. Killed
				// unwinds the goroutine exactly like a group teardown.
				return sys.Reply{Killed: true}
			case <-s.stop:
				return sys.Reply{Killed: true}
			}
		}
	}
	return func(call sys.Call) sys.Reply {
		if hook != nil {
			if stall, crash := hook.PreSyscall(l.id, v.id, call.Num); crash {
				// The variant dies before reaching the rendezvous: its
				// goroutine unwinds via ErrCrashed and the lane monitor
				// observes the death as a variant fault.
				return sys.Reply{Crashed: true}
			} else if stall > 0 {
				time.Sleep(stall)
			}
		}
		v.msg.call = call
		select {
		case v.calls <- &v.msg:
			return <-v.msg.reply
		case <-s.stop:
			return sys.Reply{Killed: true}
		}
	}
}

// lane is one worker lane: an independent N-variant rendezvous with
// its own monitor goroutine and scratch, sharing the system state.
type lane struct {
	sys *system
	id  int

	// cred is the lane's credential set — per lane, exactly as fork
	// gives each prefork worker its own copy of the parent's
	// credentials. Worker lanes snapshot the primary lane's cred at
	// prefork time. Monitor-goroutine private: a lane changing its
	// identity (httpd's per-request seteuid dance) must never race a
	// sibling lane's permission checks — with one group-wide cred, a
	// lane's between-requests re-escalation to root would let a
	// concurrent sibling open a root-only document and leak it.
	cred vos.Cred

	variants []*variantRT

	// Rendezvous scratch, reused across iterations so the steady-state
	// monitor loop allocates nothing: the arrival slice, the canonical
	// argument vector, the payload-gathering buffers, and the pinned
	// open-file descriptions of the write path.
	msgs   []*callMsg
	canon  []word.Word
	ioBuf  []byte // reference-variant payloads and shared-read staging
	cmpBuf []byte // other variants' payloads during cross-checking
	pin    []*vos.OpenFile

	// Live-set view (monitor-goroutine private, synced from the
	// group-wide evicted mask at the top of each gather round): dead is
	// the local copy of the eviction bitmask, live the surviving count,
	// ref the lowest live index — the variant every cross-check
	// compares against (variant 0 until it is evicted, so unanimous
	// groups behave and report byte-identically).
	dead uint64
	live int
	ref  int

	rendezvous int
	exited     bool
}

// newLane allocates lane id with fresh per-variant address spaces and
// mailboxes, starting from the group's initial credentials. The lane
// is not yet registered or running.
func (s *system) newLane(id int) *lane {
	l := &lane{sys: s, id: id, cred: s.cfg.Cred, live: s.n}
	l.variants = make([]*variantRT, s.n)
	for i := 0; i < s.n; i++ {
		l.variants[i] = &variantRT{
			id:    i,
			calls: make(chan *callMsg),
			done:  make(chan struct{}),
			mem:   vmem.New(s.parts[i]),
		}
		if s.cfg.Quorum > 0 {
			l.variants[i].gone = make(chan struct{})
		}
		l.variants[i].msg.reply = make(chan sys.Reply, 1)
	}
	l.msgs = make([]*callMsg, s.n)
	return l
}

// spawnWorkerLane starts worker lane id running the given worker
// bodies (one per variant) with its own monitor goroutine. cred is
// the forking lane's credentials at prefork time — the fork-copied
// identity the worker starts with.
func (s *system) spawnWorkerLane(id int, workers []sys.WorkerProgram, cred vos.Cred) {
	l := s.newLane(id)
	l.cred = cred
	for i := 0; i < s.n; i++ {
		v := l.variants[i]
		wp := workers[i]
		ctx := sys.NewContext(i, s.n, v.mem, s.invokerFor(l, v))
		ctx.Worker = id
		go func() {
			defer close(v.done)
			err := wp.RunWorker(ctx, id)
			if err == nil && !ctx.Exited() {
				err = ctx.Exit(0)
			}
			if err != nil && !errors.Is(err, sys.ErrKilled) {
				v.err = err
			}
		}()
	}
	s.mu.Lock()
	s.lanes = append(s.lanes, l)
	if g := s.evicted.Load(); g != 0 {
		// The group degraded before this worker lane registered (a
		// prefork racing an eviction): close the evicted variants' gone
		// channels here, in the same critical section tryEvict's
		// roster-wide close runs under, so the new lane's variants
		// cannot miss the signal.
		for i := 0; i < s.n; i++ {
			if g&(1<<uint(i)) != 0 {
				close(l.variants[i].gone)
			}
		}
	}
	s.mu.Unlock()
	s.monitors.Add(1)
	go func() {
		defer s.monitors.Done()
		l.monitor()
	}()
}

// monitor runs the lane's rendezvous loop until exit, alarm, or a
// sibling lane's kill. The rendezvous deadline is amortized: the timer
// is armed once and checked lazily against rendezvous progress when it
// fires, instead of being reset and drained on every iteration. A
// stalled rendezvous is therefore detected after between one and two
// Timeouts (never before Timeout), trading alarm latency bounded by 2×
// for zero timer traffic on the hot path.
func (l *lane) monitor() {
	s := l.sys
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	armedAt := 0 // rendezvous count when the timer was last armed
	for {
		l.syncLive()
		for i := range l.msgs {
			l.msgs[i] = nil
		}
		for i, v := range l.variants {
			if l.dead&(1<<uint(i)) != 0 {
				// Evicted in an earlier round (or earlier this round):
				// nobody gathers this variant anymore.
				continue
			}
		arrival:
			for {
				select {
				case m := <-v.calls:
					l.msgs[i] = m
					break arrival
				case <-v.done:
					// A variant died without reaching the rendezvous: a
					// variant fault. With a quorum and enough live
					// survivors the group evicts it and degrades;
					// otherwise (unanimous, or quorum lost) the fault
					// kills the group as before.
					detail := "variant terminated unexpectedly"
					if v.err != nil {
						detail = v.err.Error()
					}
					if l.tryEvict(i, FaultCrash, detail) {
						l.reapDead()
						break arrival
					}
					reason := ReasonVariantFault
					if s.cfg.Quorum > 0 {
						reason = ReasonQuorumLost
					}
					l.raise(&Alarm{
						Reason:  reason,
						Syscall: "(none)",
						Seq:     l.rendezvous,
						Variant: i,
						Detail:  detail,
					}, l.msgs)
					return
				case <-v.gone:
					// A sibling lane evicted this variant while we were
					// waiting for it: adopt the group's live set and move
					// on. (Receiving on the nil gone channel of a
					// no-quorum group blocks forever, i.e. this case is
					// compiled out of the unanimous contract.)
					l.applyDead(s.evicted.Load())
					l.reapDead()
					break arrival
				case <-s.killed:
					// A sibling lane alarmed (or the group is being
					// torn down): retire this lane, releasing the
					// variants already gathered.
					l.killGathered()
					return
				case <-timer.C:
					if l.rendezvous != armedAt {
						// Progress since the last arming: re-arm for a
						// fresh window and keep waiting.
						armedAt = l.rendezvous
						timer.Reset(s.cfg.Timeout)
						continue
					}
					detail := fmt.Sprintf("variant %d did not reach rendezvous within %v", i, s.cfg.Timeout)
					if l.tryEvict(i, FaultStall, detail) {
						l.reapDead()
						armedAt = l.rendezvous
						timer.Reset(s.cfg.Timeout)
						break arrival
					}
					reason := ReasonTimeout
					if s.cfg.Quorum > 0 {
						reason = ReasonQuorumLost
					}
					l.raise(&Alarm{
						Reason:  reason,
						Syscall: "(none)",
						Seq:     l.rendezvous,
						Variant: i,
						Detail:  detail,
					}, l.msgs)
					return
				}
			}
		}

		l.rendezvous++
		s.vtime.Add(1)
		if m := s.cfg.Metrics; m != nil {
			// Timed rendezvous: two clock reads and a few atomic adds —
			// the loop stays allocation-free (proven by
			// TestInstrumentedRendezvousZeroAlloc and the bench gate).
			start := time.Now()
			num := l.msgs[l.ref].call.Num
			stop := l.dispatch(l.msgs)
			m.observeRendezvous(num, time.Since(start))
			if stop {
				return
			}
			continue
		}
		if l.dispatch(l.msgs) {
			return
		}
	}
}

// syncLive refreshes the lane's private live-set view from the
// group-wide eviction mask. Called at the top of every gather round:
// one branch for unanimous groups, one atomic load for quorum groups —
// the steady-state loop stays allocation- and lock-free.
func (l *lane) syncLive() {
	if l.sys.cfg.Quorum <= 0 {
		return
	}
	if g := l.sys.evicted.Load(); g != l.dead {
		l.applyDead(g)
	}
}

// applyDead installs eviction mask g as the lane's live-set view:
// dead/live/ref are recomputed in place (no slice rebuild). ref is the
// lowest live index — the reference every cross-check compares
// against, variant 0 until variant 0 itself is evicted, so unanimous
// groups behave and report byte-identically.
func (l *lane) applyDead(g uint64) {
	l.dead = g
	l.live = l.sys.n - bits.OnesCount64(g)
	l.ref = bits.TrailingZeros64(^g)
}

// reapDead restores the gather invariant after a mid-round live-set
// change: any already-gathered arrival whose variant is now dead is
// answered Killed and its slot cleared, so a non-nil slot always
// belongs to a live variant when the round dispatches.
func (l *lane) reapDead() {
	for j, m := range l.msgs {
		if m != nil && l.dead&(1<<uint(j)) != 0 {
			m.reply <- sys.Reply{Killed: true}
			l.msgs[j] = nil
		}
	}
}

// tryEvict attempts to absorb a variant fault by eviction: with a
// quorum configured, no alarm pending, and at least Quorum variants
// live after dropping the faulted one, the variant is evicted
// group-wide (audit entry appended, every lane's gone channel closed)
// and the lane adopts the new live set. It returns false when the
// fault must kill the group instead — no quorum configured, or
// evicting would fall below K.
func (l *lane) tryEvict(variant int, kind FaultKind, detail string) bool {
	s := l.sys
	if s.cfg.Quorum <= 0 {
		return false
	}
	bit := uint64(1) << uint(variant)
	s.mu.Lock()
	if s.alarm != nil {
		// An alarm outranks degraded mode: the group is dying anyway.
		s.mu.Unlock()
		return false
	}
	g := s.evicted.Load()
	if g&bit != 0 {
		// A sibling lane evicted this variant first: adopt its view.
		s.mu.Unlock()
		l.applyDead(g)
		return true
	}
	liveAfter := s.n - bits.OnesCount64(g) - 1
	if liveAfter < s.cfg.Quorum {
		s.mu.Unlock()
		return false
	}
	g |= bit
	s.evicted.Store(g)
	ev := Eviction{
		Variant: variant,
		Worker:  l.id,
		Kind:    kind,
		Seq:     l.rendezvous,
		VTime:   s.vtime.Load(),
		Live:    liveAfter,
		Detail:  detail,
	}
	s.evictions = append(s.evictions, ev)
	// Closing under mu pairs with lane registration in spawnWorkerLane:
	// every lane either sees the mask at registration or gets its gone
	// channels closed here — never neither.
	for _, other := range s.lanes {
		close(other.variants[variant].gone)
	}
	s.mu.Unlock()
	if m := s.cfg.Metrics; m != nil {
		m.observeEviction(kind)
	}
	if fn := s.cfg.OnEvict; fn != nil {
		fn(ev)
	}
	l.applyDead(g)
	return true
}

// killGathered answers every already-gathered arrival with Killed.
// Variants not yet at the rendezvous are unwound by the end-of-Run
// drain.
func (l *lane) killGathered() {
	for _, m := range l.msgs {
		if m != nil {
			m.reply <- sys.Reply{Killed: true}
		}
	}
}

// raise records the alarm (first alarm wins group-wide), kills the
// gathered variants of this lane, and tears the whole group down — as
// the paper's kernel SIGKILLs the process group: every descriptor is
// released, which unblocks sibling lanes parked in accept/recv so
// their monitors retire too. Closing connections is what a remote
// attacker observes: the connection drops with no response.
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

// kill signals the group-wide teardown and releases every descriptor.
func (s *system) kill() {
	s.killOnce.Do(func() { close(s.killed) })
	s.mu.Lock()
	s.closeAllLocked()
	s.mu.Unlock()
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
// It returns true when the lane's monitor loop should stop. Slots of
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
// It returns true when the lane monitor should stop.
func (l *lane) replyFail(msgs []*callMsg, err error) bool {
	if l.sys.killedNow() {
		replyAll(msgs, sys.Reply{Killed: true})
		return true
	}
	replyErrno(msgs, err)
	return false
}
