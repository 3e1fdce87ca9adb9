package nvkernel

import (
	"time"

	"nvariant/internal/obs"
	"nvariant/internal/sys"
)

// Metrics is the kernel's registered metric set. Attach one to a run
// with WithMetrics; updates are single atomic operations so the
// instrumented rendezvous stays 0 allocs/op. All series are owned by
// this layer (DESIGN.md "Observability"):
//
//	nvk_rendezvous_latency_seconds  histogram, one observation per rendezvous
//	nvk_syscalls_total{call=...}    counter per syscall number
//	nvk_alarms_total{reason=...}    counter per alarm reason (winning alarms only)
//	nvk_alarm_kill_latency_seconds  histogram, alarm raise → group killed
//	nvk_variant_faults_total{kind=...}  counter per absorbed fault kind (quorum evictions)
//	nvk_evictions_total             counter, one per quorum eviction
type Metrics struct {
	rendezvous *obs.Histogram
	alarmKill  *obs.Histogram
	syscalls   []*obs.Counter // indexed by sys.Num
	alarms     []*obs.Counter // indexed by Reason
	faults     []*obs.Counter // indexed by FaultKind
	evictions  *obs.Counter
}

// NewMetrics registers (or finds) the kernel metric set on reg.
// Registration is idempotent, so every kernel in a fleet or campaign
// aggregates into the same series.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		rendezvous: reg.Histogram("nvk_rendezvous_latency_seconds",
			"Monitor-side latency of one syscall rendezvous (gather to reply).", nil),
		alarmKill: reg.Histogram("nvk_alarm_kill_latency_seconds",
			"Latency from alarm raise to group kill signalled.", nil),
	}
	// The syscall table is contiguous from 1; size the dense counter
	// slice off it so Num indexes directly.
	for n := sys.Num(1); ; n++ {
		spec, ok := sys.SpecFor(n)
		if !ok {
			break
		}
		m.syscalls = append(m.syscalls, nil)
		m.syscalls[n-1] = reg.Counter("nvk_syscalls_total",
			"Rendezvous completed, by syscall.", obs.L("call", spec.Name))
	}
	for r := Reason(1); r < reasonEnd; r++ {
		m.alarms = append(m.alarms, reg.Counter("nvk_alarms_total",
			"Alarms raised (first alarm per group), by reason.", obs.L("reason", r.String())))
	}
	for k := FaultCrash; k <= FaultStall; k++ {
		m.faults = append(m.faults, reg.Counter("nvk_variant_faults_total",
			"Variant faults absorbed by quorum eviction, by kind.", obs.L("kind", k.String())))
	}
	m.evictions = reg.Counter("nvk_evictions_total",
		"Variants evicted by the K-of-N quorum machinery.")
	return m
}

// clockBase anchors rendezvous timing: time.Since(clockBase) is one
// monotonic clock read, half the cost of time.Now's wall-plus-monotonic
// pair on the per-rendezvous path.
var clockBase = time.Now()

// observeRendezvous records one completed rendezvous.
func (m *Metrics) observeRendezvous(num sys.Num, d time.Duration) {
	m.rendezvous.Observe(d)
	if i := int(num) - 1; i >= 0 && i < len(m.syscalls) {
		m.syscalls[i].Inc()
	}
}

// observeAlarm records the group's winning alarm and its raise-to-kill
// latency.
func (m *Metrics) observeAlarm(r Reason, killLatency time.Duration) {
	if i := int(r) - 1; i >= 0 && i < len(m.alarms) {
		m.alarms[i].Inc()
	}
	m.alarmKill.Observe(killLatency)
}

// observeEviction records one quorum eviction and its fault kind.
func (m *Metrics) observeEviction(k FaultKind) {
	if i := int(k) - 1; i >= 0 && i < len(m.faults) {
		m.faults[i].Inc()
	}
	m.evictions.Inc()
}
