package nvkernel

import (
	"encoding/json"
	"fmt"
	"time"
)

// Reason classifies why the monitor raised an alarm.
type Reason int

// Alarm reasons.
const (
	// ReasonSyscallMismatch: variants arrived at different syscalls.
	ReasonSyscallMismatch Reason = iota + 1
	// ReasonArgDivergence: non-UID syscall arguments differ after
	// canonicalization.
	ReasonArgDivergence
	// ReasonUIDDivergence: UID-typed arguments decode to different
	// canonical values (or an invalid representation) — the detection
	// property of the UID variation firing.
	ReasonUIDDivergence
	// ReasonCondDivergence: a cond_chk condition differed between
	// variants.
	ReasonCondDivergence
	// ReasonDataDivergence: output payloads differ between variants.
	ReasonDataDivergence
	// ReasonVariantFault: a variant crashed (e.g., segmentation fault
	// in its simulated address space) while others were healthy.
	ReasonVariantFault
	// ReasonExitMismatch: variants exited with different statuses.
	ReasonExitMismatch
	// ReasonTimeout: a variant failed to reach the rendezvous in time.
	ReasonTimeout
	// ReasonQuorumLost: a variant faulted (crash or stall) and evicting
	// it would leave fewer than Quorum live variants — the K-of-N group
	// can no longer uphold its detection contract and dies instead of
	// degrading further.
	ReasonQuorumLost

	// reasonEnd is one past the last reason: the sentinel every
	// loop-over-all-reasons (metrics registration, the round-trip test)
	// ranges to, so appending a constant above cannot silently fall out
	// of those loops.
	reasonEnd
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonSyscallMismatch:
		return "syscall-mismatch"
	case ReasonArgDivergence:
		return "arg-divergence"
	case ReasonUIDDivergence:
		return "uid-divergence"
	case ReasonCondDivergence:
		return "cond-divergence"
	case ReasonDataDivergence:
		return "data-divergence"
	case ReasonVariantFault:
		return "variant-fault"
	case ReasonExitMismatch:
		return "exit-mismatch"
	case ReasonTimeout:
		return "timeout"
	case ReasonQuorumLost:
		return "quorum-lost"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the reason as its name, so audit NDJSON carries
// "uid-divergence" rather than an enum ordinal.
func (r Reason) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// FaultKind classifies a variant fault the quorum machinery evicted
// on: the availability-fault class, as opposed to the divergence
// (attack) class that still raises alarms.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash: the variant died (sys.ErrCrashed or an unexpected
	// goroutine exit) before reaching the rendezvous.
	FaultCrash FaultKind = iota + 1
	// FaultStall: the variant failed to reach the rendezvous within the
	// deadline while its siblings were already gathered.
	FaultStall
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind as its name.
func (k FaultKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Eviction is one audit record of the K-of-N quorum machinery: a
// variant faulted, at least Quorum live variants agreed, and the group
// dropped the faulted variant and continued in degraded mode instead
// of dying. Like Alarm it carries the deterministic virtual-time stamp
// (VTime) next to the in-lane position (Seq), so seeded campaign
// matrices can embed evictions byte-identically.
type Eviction struct {
	// Variant is the evicted variant's index.
	Variant int `json:"variant"`
	// Worker is the worker lane whose monitor observed the fault (the
	// eviction itself is group-wide: the variant is dropped from every
	// lane's live set).
	Worker int `json:"worker"`
	// Kind classifies the fault (crash or stall).
	Kind FaultKind `json:"kind"`
	// Seq is the observing lane's rendezvous sequence number at the
	// eviction.
	Seq int `json:"seq"`
	// VTime is the group's virtual clock at the eviction — the
	// deterministic timestamp audit consumers pair with wall clocks.
	VTime uint32 `json:"vtime"`
	// Live is the number of variants still live after the eviction.
	Live int `json:"live"`
	// Detail describes the fault (e.g. the variant's terminal error).
	Detail string `json:"detail"`
}

// String renders the eviction as one audit line.
func (e Eviction) String() string {
	return fmt.Sprintf("nvariant eviction [%s] variant %d (worker %d, seq %d, vtime %d): %d live; %s",
		e.Kind, e.Variant, e.Worker, e.Seq, e.VTime, e.Live, e.Detail)
}

// Alarm is the monitor's report of a detected divergence: in the
// paper's threat model, an alarm is a detected attack (any divergence
// on identical inputs indicates compromise, §1).
type Alarm struct {
	// Reason classifies the divergence.
	Reason Reason `json:"reason"`
	// Syscall names the rendezvous at which the divergence was seen
	// (its String is "unknown" for timeouts before arrival).
	Syscall string `json:"syscall"`
	// Seq is the rendezvous sequence number within the worker lane.
	Seq int `json:"seq"`
	// Variant is the offending variant when identifiable, else -1.
	Variant int `json:"variant"`
	// Worker is the worker lane the divergence was seen in (0 for the
	// primary lane / serial groups). The alarm still kills the whole
	// group; Worker records where the corruption surfaced.
	Worker int `json:"worker"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
	// At is the wall-clock raise time. It exists for the ops surface
	// (alarm latency, audit tail) and never enters campaign JSON —
	// seeded matrices stay byte-identical; pair with VTime inside the
	// deterministic world.
	At time.Time `json:"at"`
	// VTime is the group's virtual clock at the raise — the
	// deterministic timestamp.
	VTime uint32 `json:"vtime"`
}

// Error renders the alarm; Alarm implements error so kernel internals
// can propagate it, but it is reported via Result, not returned.
func (a *Alarm) Error() string {
	return fmt.Sprintf("nvariant alarm [%s] at syscall %s (seq %d, worker %d, variant %d): %s",
		a.Reason, a.Syscall, a.Seq, a.Worker, a.Variant, a.Detail)
}
