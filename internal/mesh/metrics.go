package mesh

import (
	"strconv"

	"nvariant/internal/obs"
)

// metrics is the mesh's registered metric set, created when
// Options.Obs is set. Dispatch-path updates are atomic adds — the
// instrumented session adds no allocations (see
// TestMeshSessionAddsNoAllocs). Series owned by this layer:
//
//	mesh_dispatched_total            dispatches completed through sessions
//	mesh_shed_total                  dispatches refused by admission control
//	mesh_retries_total               dispatch attempts past a request's first
//	mesh_reroutes_total              retries that landed on a non-home pool
//	mesh_retry_backoff_ticks         backoff ticks charged to the mesh clock
//	mesh_rotations_total             moving-target rotations completed
//	mesh_rotations_skipped_total     rotation triggers skipped at the availability floor or on a sick pool
//	mesh_rotation_drain_seconds      rotation start → pool replenished
//	mesh_exposure_window_seconds     rotated group's age: how long its masks were exposed
//	mesh_pool_healthy_groups{pool}   per-shard healthy group count (sampled)
//	mesh_pool_degraded_groups{pool}  per-shard quorum-degraded group count (sampled)
//	mesh_pool_health{pool}           per-shard fault-penalty health score (sampled; 0 = healthy)
type metrics struct {
	dispatched *obs.Counter
	shed       *obs.Counter
	retries    *obs.Counter
	reroutes   *obs.Counter
	backoff    *obs.Counter
	rotations  *obs.Counter
	rotSkipped *obs.Counter
	drain      *obs.Histogram
	exposure   *obs.Histogram
}

// newMetrics registers the mesh metric set on reg, including one
// healthy-groups gauge per pool labeled by shard index.
func newMetrics(reg *obs.Registry, m *Mesh) *metrics {
	mm := &metrics{
		dispatched: reg.Counter("mesh_dispatched_total", "Dispatches completed through mesh sessions."),
		shed:       reg.Counter("mesh_shed_total", "Dispatches refused by per-pool admission control."),
		retries:    reg.Counter("mesh_retries_total", "Dispatch attempts past a request's first (retry-with-backoff)."),
		reroutes:   reg.Counter("mesh_reroutes_total", "Retries that landed on a pool other than the session's home."),
		backoff:    reg.Counter("mesh_retry_backoff_ticks", "Retry backoff ticks charged to the mesh clock."),
		rotations:  reg.Counter("mesh_rotations_total", "Moving-target rotations completed (drain + fresh-spec replace)."),
		rotSkipped: reg.Counter("mesh_rotations_skipped_total", "Rotation triggers skipped at the availability floor or on a sick pool."),
		drain: reg.Histogram("mesh_rotation_drain_seconds",
			"Rotation start to pool replenished with the replacement group.", nil),
		exposure: reg.Histogram("mesh_exposure_window_seconds",
			"Rotated group's age at drain: how long one mask set stayed exposed.", nil),
	}
	for _, p := range m.pools {
		f := p.fleet
		pl := p
		reg.GaugeFunc("mesh_pool_healthy_groups", "Healthy groups in this shard (sampled).",
			func() float64 { return float64(f.HealthyCount()) },
			obs.L("pool", strconv.Itoa(p.id)))
		reg.GaugeFunc("mesh_pool_degraded_groups", "Groups in this shard serving on a K-of-N quorum (sampled).",
			func() float64 { return float64(f.DegradedCount()) },
			obs.L("pool", strconv.Itoa(p.id)))
		reg.GaugeFunc("mesh_pool_health", "This shard's decayed fault-penalty score (sampled; 0 = healthy, >= sick threshold demotes).",
			func() float64 { return float64(pl.healthScore(m)) },
			obs.L("pool", strconv.Itoa(p.id)))
	}
	return mm
}
