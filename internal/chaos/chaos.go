// Package chaos is the seeded, fully deterministic fault-injection
// layer of the repository: named fault plans that disturb the simnet
// data plane (message delay, drop, reorder, truncation), the monitor
// kernel's syscall boundary (per-lane variant stalls, slow syscalls,
// crash-and-drain mid-rendezvous), and pool membership (group restart
// under load) — plus the single-group campaign runner (campaign.go)
// that sweeps the expanded attack corpus against every fault plan.
// Pool topologies run the same plans in the mesh×chaos campaign
// (internal/mesh).
//
// Determinism contract: every fault decision is derived either from a
// seeded rng consulted in the (serialized) order messages enter the
// wire, or from an interleaving-independent hash of (seed, variant,
// syscall, occurrence-count). A campaign driven by one closed-loop
// client therefore draws the identical decision sequence on every run
// with the same seed — which is what makes campaign output
// byte-identical and every chaos finding a replayable regression test.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nvariant/internal/nvkernel"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
)

// Plan is one named fault plan: what is injected at each layer while a
// campaign cell runs. The zero value injects nothing.
type Plan struct {
	// Name identifies the plan in campaign matrices.
	Name string
	// Transparent reports whether the plan's faults must be absorbed
	// without an alarm: network disturbance and bounded stalls are the
	// benign-fault class the paper's design must stay transparent
	// under. Crash plans are not transparent — the monitor is supposed
	// to alarm on a dying variant.
	Transparent bool
	// Net configures data-plane faults (nil = none).
	Net *NetPlan
	// Kernel configures syscall-boundary faults (nil = none).
	Kernel *KernelPlan
	// RestartEvery, in pool cells, shuts down the oldest pool group
	// after every RestartEvery-th benign request (0 = never) — the
	// group-crash/restart-under-load fault.
	RestartEvery int
}

// PoolOnly reports whether the plan's only effect is RestartEvery: a
// pool-membership fault that a single-group cell cannot run.
func (p Plan) PoolOnly() bool {
	return p.RestartEvery > 0 && p.Net == nil && p.Kernel == nil
}

// VariantFault reports whether the plan strikes one variant at a fixed
// syscall occurrence — a deterministic crash or deadline-blowing stall,
// the faults a K-of-N quorum survives by eviction.
func (p Plan) VariantFault() bool {
	return p.Kernel != nil && (p.Kernel.CrashAfter > 0 || p.Kernel.StallAfter > 0)
}

// Quorum cells — the chaos campaign's K-of-N group cells and the mesh
// campaign's variant-fault cells — run K-of-N groups with K = QuorumK
// whose rendezvous deadline is QuorumTimeout: short enough that the
// variant-stall plan's quorumStall reliably blows it.
const (
	QuorumK       = 2
	QuorumTimeout = 100 * time.Millisecond
	quorumStall   = 500 * time.Millisecond
)

// NetPlan configures data-plane faults. Rates are per-message
// probabilities; at most one fault strikes a given message (drop wins
// over truncate over reorder over delay).
type NetPlan struct {
	// DropRate severs the connection, losing the message (link
	// failure).
	DropRate float64
	// TruncateRate delivers a prefix of the message.
	TruncateRate float64
	// ReorderRate holds the message back past its successor (bounded
	// by HoldFor).
	ReorderRate float64
	// DelayRate adds Delay of extra one-way latency.
	DelayRate float64
	// Delay is the extra latency of a delayed message.
	Delay time.Duration
	// HoldFor bounds how long a reordered message is parked when no
	// successor arrives (default 1ms).
	HoldFor time.Duration
}

// Injector builds the seeded simnet fault injector for the plan. The
// decision stream is consumed one draw per message in wire order, so
// serialized traffic replays identically from the same seed.
func (p *NetPlan) Injector(seed int64) simnet.FaultInjector {
	return &netInjector{plan: *p, rng: rand.New(rand.NewSource(seed))}
}

type netInjector struct {
	mu   sync.Mutex
	plan NetPlan
	rng  *rand.Rand
}

// FaultFor implements simnet.FaultInjector.
func (i *netInjector) FaultFor(size int) simnet.Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	r := i.rng.Float64()
	p := &i.plan
	switch {
	case r < p.DropRate:
		return simnet.Fault{Drop: true}
	case r < p.DropRate+p.TruncateRate:
		if size < 2 {
			return simnet.Fault{}
		}
		return simnet.Fault{TruncateTo: 1 + i.rng.Intn(size-1)}
	case r < p.DropRate+p.TruncateRate+p.ReorderRate:
		hold := p.HoldFor
		if hold <= 0 {
			hold = time.Millisecond
		}
		return simnet.Fault{Hold: hold}
	case r < p.DropRate+p.TruncateRate+p.ReorderRate+p.DelayRate:
		return simnet.Fault{Delay: p.Delay}
	default:
		return simnet.Fault{}
	}
}

// KernelPlan configures syscall-boundary faults.
type KernelPlan struct {
	// StallRate is the per-syscall probability that the issuing
	// variant sleeps Stall before reaching the rendezvous — the
	// slow-syscall / lane-stall fault. Transparent while Stall stays
	// well under the rendezvous timeout.
	StallRate float64
	// Stall is the injected stall duration.
	Stall time.Duration
	// CrashVariant, when ≥ 0, crashes that variant at its CrashAfter-th
	// issue of CrashCall (counted per variant across all worker lanes):
	// the variant dies before the rendezvous, and the monitor drains the
	// group — the crash-and-drain fault.
	CrashVariant int
	// CrashCall is the syscall kind the crash triggers on.
	CrashCall sys.Num
	// CrashAfter is the occurrence count that triggers the crash
	// (1 = the first CrashCall).
	CrashAfter int
	// StallVariant, when StallAfter > 0, hard-stalls that variant for
	// Stall at its StallAfter-th issue of StallCall (same group-wide
	// occurrence counting as the crash trigger). Unlike StallRate this
	// is a single deterministic stall sized to blow the rendezvous
	// deadline — the stall-fault a quorum must evict.
	StallVariant int
	// StallCall is the syscall kind the deterministic stall triggers on.
	StallCall sys.Num
	// StallAfter is the occurrence count that triggers the stall
	// (0 = disabled).
	StallAfter int
}

// Hook builds the seeded kernel fault hook for the plan. Stall
// decisions hash (seed, variant, syscall, occurrence) — independent of
// goroutine interleaving — and the crash trigger counts occurrences of
// one syscall kind group-wide per variant, so the trigger point is a
// property of the traffic, not of lane scheduling.
func (p *KernelPlan) Hook(seed int64) nvkernel.FaultHook {
	return &kernelHook{plan: *p, seed: uint64(seed), counts: make(map[countKey]uint64)}
}

type countKey struct {
	variant int
	num     sys.Num
}

type kernelHook struct {
	plan   KernelPlan
	seed   uint64
	mu     sync.Mutex
	counts map[countKey]uint64
}

// PreSyscall implements nvkernel.FaultHook.
func (h *kernelHook) PreSyscall(worker, variant int, num sys.Num) (time.Duration, bool) {
	h.mu.Lock()
	k := countKey{variant, num}
	h.counts[k]++
	c := h.counts[k]
	h.mu.Unlock()
	p := &h.plan
	if p.CrashAfter > 0 && variant == p.CrashVariant && num == p.CrashCall && c == uint64(p.CrashAfter) {
		return 0, true
	}
	if p.StallAfter > 0 && variant == p.StallVariant && num == p.StallCall && c == uint64(p.StallAfter) {
		return p.Stall, false
	}
	if p.StallRate > 0 {
		x := mix64(h.seed ^ mix64(uint64(variant)<<32|uint64(num)) ^ c)
		if unit(x) < p.StallRate {
			return p.Stall, false
		}
	}
	return 0, false
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality hash used
// to derive interleaving-independent per-occurrence decisions.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Plans returns the standard campaign fault-plan set. The transparent
// plans are the benign-fault class the system must absorb with zero
// false alarms; variant-crash and variant-stall are the detected-fault
// class (a unanimous monitor must alarm, a quorum must evict), both
// striking variant 1 so they work at every N ≥ 2; group-restart
// exercises pool recovery under load.
func Plans() []Plan {
	return []Plan{
		{Name: "none", Transparent: true},
		{Name: "net-delay", Transparent: true,
			Net: &NetPlan{DelayRate: 0.30, Delay: 200 * time.Microsecond}},
		{Name: "net-drop", Transparent: true,
			Net: &NetPlan{DropRate: 0.05}},
		{Name: "net-reorder", Transparent: true,
			Net: &NetPlan{ReorderRate: 0.25, HoldFor: time.Millisecond}},
		{Name: "net-truncate", Transparent: true,
			Net: &NetPlan{TruncateRate: 0.10}},
		{Name: "net-mixed", Transparent: true,
			Net: &NetPlan{DropRate: 0.03, TruncateRate: 0.05, ReorderRate: 0.10, DelayRate: 0.20, Delay: 100 * time.Microsecond}},
		{Name: "slow-syscalls", Transparent: true,
			Kernel: &KernelPlan{StallRate: 0.50, Stall: 50 * time.Microsecond}},
		{Name: "lane-stall", Transparent: true,
			Kernel: &KernelPlan{StallRate: 0.05, Stall: 2 * time.Millisecond}},
		{Name: "variant-crash", Transparent: false,
			Kernel: &KernelPlan{CrashVariant: 1, CrashCall: sys.Recv, CrashAfter: 3}},
		{Name: "variant-stall", Transparent: false,
			Kernel: &KernelPlan{StallVariant: 1, StallCall: sys.Recv, StallAfter: 3, Stall: quorumStall}},
		{Name: "group-restart", Transparent: true, RestartEvery: 4},
	}
}

// PlanByName returns the standard plan with the given name.
func PlanByName(name string) (Plan, error) {
	for _, p := range Plans() {
		if p.Name == name {
			return p, nil
		}
	}
	return Plan{}, fmt.Errorf("chaos: unknown fault plan %q", name)
}

// TransparentPlans returns the standard plans whose faults a group must
// absorb without an alarm — the fault-only campaign's set (pool-only
// plans excluded).
func TransparentPlans() []Plan {
	var out []Plan
	for _, p := range Plans() {
		if p.Transparent && !p.PoolOnly() {
			out = append(out, p)
		}
	}
	return out
}
