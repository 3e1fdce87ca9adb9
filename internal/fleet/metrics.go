package fleet

import (
	"time"

	"nvariant/internal/obs"
)

// metrics is the fleet's registered metric set, created when
// Options.Obs is set. Dispatch-path updates are atomic adds — the
// instrumented dispatcher adds no allocations (see the bench gate and
// TestInstrumentedDispatchAddsNoAllocs). Series owned by this layer:
//
//	fleet_dispatched_total           connections handed to a group
//	fleet_dispatch_errors_total      connections that found no healthy group
//	fleet_inflight                   connections currently handed to a group
//	fleet_detections_total           groups that exited with an alarm
//	fleet_quarantines_total          groups pruned from the pool
//	fleet_replacements_total         replacement groups spawned
//	fleet_rotations_total            healthy groups drained + replaced proactively
//	fleet_respawns_total             degraded groups drained + respawned after an eviction
//	fleet_exposure_window_seconds    alarm raise → replacement registered
//	fleet_group_lifetime_seconds     group spawn → exit (one mask set's exposure)
//	fleet_healthy_groups             current pool size (sampled)
//	fleet_degraded_groups            groups serving on a K-of-N quorum (sampled)
//	fleet_oldest_group_age_seconds   age of the longest-lived pool member (sampled)
type metrics struct {
	dispatched     *obs.Counter
	dispatchErrors *obs.Counter
	inflight       *obs.Gauge
	detections     *obs.Counter
	quarantines    *obs.Counter
	replacements   *obs.Counter
	rotations      *obs.Counter
	respawns       *obs.Counter
	exposure       *obs.Histogram
	lifetime       *obs.Histogram
}

// newMetrics registers the fleet metric set on reg. The sampled
// gauges capture f; when several fleets share a registry the latest
// fleet wins those series (obs *Func re-registration semantics),
// while the counters aggregate across all of them.
func newMetrics(reg *obs.Registry, f *Fleet) *metrics {
	m := &metrics{
		dispatched:     reg.Counter("fleet_dispatched_total", "Connections handed to a group."),
		dispatchErrors: reg.Counter("fleet_dispatch_errors_total", "Connections that found no healthy group."),
		inflight:       reg.Gauge("fleet_inflight", "Connections currently handed to a group."),
		detections:     reg.Counter("fleet_detections_total", "Groups that exited with an alarm."),
		quarantines:    reg.Counter("fleet_quarantines_total", "Groups pruned from the pool."),
		replacements:   reg.Counter("fleet_replacements_total", "Replacement groups spawned."),
		rotations:      reg.Counter("fleet_rotations_total", "Healthy groups drained and replaced proactively."),
		respawns:       reg.Counter("fleet_respawns_total", "Degraded groups drained and respawned after a quorum eviction."),
		exposure: reg.Histogram("fleet_exposure_window_seconds",
			"Alarm raise to replacement group registered.", nil),
		lifetime: reg.Histogram("fleet_group_lifetime_seconds",
			"Group spawn to exit: how long one mask set stayed exposed.", nil),
	}
	reg.GaugeFunc("fleet_healthy_groups", "Groups currently in the dispatch pool.",
		func() float64 { return float64(len(*f.pool.Load())) })
	reg.GaugeFunc("fleet_degraded_groups", "Groups serving on a K-of-N quorum (evicted variant, respawn pending).",
		func() float64 { return float64(f.DegradedCount()) })
	reg.GaugeFunc("fleet_oldest_group_age_seconds", "Age of the longest-lived pool member.",
		func() float64 {
			var oldest time.Time
			for _, g := range *f.pool.Load() {
				if oldest.IsZero() || g.born.Before(oldest) {
					oldest = g.born
				}
			}
			if oldest.IsZero() {
				return 0
			}
			return time.Since(oldest).Seconds()
		})
	return m
}
