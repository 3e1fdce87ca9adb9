package fleet

import (
	"fmt"
	"strings"
	"time"
)

// GroupInfo identifies one live pool member with its age and load —
// the LiveGroups roster rotation schedulers and elastic controllers
// pick victims from.
type GroupInfo struct {
	// ID is the group's fleet-unique number (ascending = spawn order).
	ID int
	// Port is the group's listening port.
	Port uint16
	// Born is the group's spawn time; Age is time since then.
	Born time.Time
	Age  time.Duration
	// Inflight / Served are the group's dispatch counters.
	Inflight int64
	Served   int64
	// Draining reports an administrative retirement in flight: the
	// group takes no new connections and will exit once drained.
	Draining bool
}

// GroupStat describes one healthy pool member at snapshot time.
type GroupStat struct {
	// ID is the group's fleet-unique number.
	ID int
	// Port is the group's listening port.
	Port uint16
	// Variants is the group's process-group size N.
	Variants int
	// Workers is the group's prefork worker-lane count (its concurrent
	// request capacity; 1 = serial).
	Workers int
	// Stack names the group's variation stack (empty for undiversified
	// configurations).
	Stack string
	// R1 names the group's variant-1 effective UID reexpression
	// function.
	R1 string
	// Inflight is the number of connections currently proxied to it.
	Inflight int64
	// Served is the number of connections ever dispatched to it.
	Served int64
}

// Stats is a point-in-time snapshot of fleet health and dispatch
// counters — the availability numbers the attack experiments report.
type Stats struct {
	// Healthy lists the current pool members (after Stop: the roster
	// as it stood at shutdown).
	Healthy []GroupStat
	// Spawned counts groups ever started (initial pool + replacements).
	Spawned int
	// Detections counts group exits with a monitor alarm.
	Detections int
	// Quarantined counts groups removed from the pool (alarmed or
	// otherwise failed) while the fleet was serving.
	Quarantined int
	// Replaced counts fresh groups spawned to fill quarantined slots.
	Replaced int
	// Rotated counts healthy groups drained and replaced proactively
	// (moving-target rotation — Rotate).
	Rotated int
	// Shrunk counts groups drained without replacement (elastic
	// scale-down — Shrink).
	Shrunk int
	// Grown counts groups added beyond replacements (elastic scale-up
	// — Grow).
	Grown int
	// Evictions counts variants evicted by quorum degraded mode across
	// all groups (the kernel-side faults the fleet absorbed).
	Evictions int
	// Respawned counts degraded groups drained and replaced at full
	// width after an eviction.
	Respawned int
	// DegradedGroups is the number of groups currently serving on a
	// K-of-N quorum (evicted variant, respawn pending) — the
	// availability exposure the mesh aggregates per pool.
	DegradedGroups int
	// Dispatched counts client connections proxied to a group.
	Dispatched int64
	// DispatchErrors counts client connections the dispatcher could not
	// place on any healthy group.
	DispatchErrors int64
}

// String renders a one-line fleet summary plus a per-group table.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d healthy / %d spawned, %d detections, %d quarantined, %d replaced, %d rotated, %d dispatched (%d errors)",
		len(s.Healthy), s.Spawned, s.Detections, s.Quarantined, s.Replaced, s.Rotated, s.Dispatched, s.DispatchErrors)
	if s.Evictions > 0 || s.Respawned > 0 || s.DegradedGroups > 0 {
		fmt.Fprintf(&b, ", %d evicted, %d respawned, %d degraded", s.Evictions, s.Respawned, s.DegradedGroups)
	}
	for _, g := range s.Healthy {
		fmt.Fprintf(&b, "\n  group %d port=%d n=%d w=%d r1=%s inflight=%d served=%d", g.ID, g.Port, g.Variants, g.Workers, g.R1, g.Inflight, g.Served)
	}
	return b.String()
}
