package mesh

// The unified mesh×chaos campaign: sweep pool count P × rotation
// cadence × chaos fault plan × attack corpus from one seed and emit a
// deterministic JSON matrix of availability, retry/re-route/backoff
// activity, exposure-window percentiles, and detection results — the
// paper's graceful-degradation story measured end to end: diversified
// pools keep serving and keep detecting while the data plane and the
// syscall boundary are under injected fault load.
//
// The fault=none column is the rotation campaign: availability under
// rotation and the attacker-exposure window — each retired group's
// deterministic teardown VTime from the audit trail, in virtual ticks,
// never a wall-clock quantity.
//
// Byte-identical replay is the same hard contract as the chaos
// campaign: benign traffic is serialized and waits for the controller
// to settle after every request (so a rotating group's rendezvous
// count cannot race the next dispatch), retries settle the
// controllers after every charged backoff (see settleControllers),
// attack probes strike a routed pool's oldest group directly, one at a
// time, each pool's fault injector consumes its decision stream in
// wire order on a single-client network segment, and only seed- and
// vtick-derived values enter the matrix.
//
// This is the one engine for pool topologies; package chaos keeps the
// fault plans and the single-group campaign. Two plan classes act on
// pool membership. group-restart shuts down whole groups under load. A
// variant-fault plan (chaos.Plan.VariantFault: the deterministic crash
// or deadline-blowing stall) makes the cell deploy K-of-(K+1) groups
// on the quorum deadline, so the struck group evicts the variant and
// the pool respawns it at full width in the background. Both wait for
// the pools to be back at full width (awaitFullWidth) before the next
// request — a variant-fault cell after every request, since its
// trigger counts syscalls pool-wide — so the respawn cannot race
// rotation, and eviction/respawn counts and exposure vticks replay.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/chaos"
	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/nvkernel"
	"nvariant/internal/obs"
	"nvariant/internal/simnet"
	"nvariant/internal/word"
)

// ChaosCampaignConfig sizes a unified mesh×chaos campaign. The runner
// crosses Pools × Rotations × Faults × Attacks into one cell each;
// narrowing any list (the -chaos rerun flags) replays exactly the
// surviving cells, because cell seeds derive from the cell labels, not
// the sweep position.
type ChaosCampaignConfig struct {
	// Seed drives every decision; the same seed reproduces
	// byte-identical output.
	Seed int64
	// Requests is the serialized benign-request count per cell
	// (default 24).
	Requests int
	// Pools lists the shard counts to sweep (default {1, 2}); each must
	// be ≥ 1.
	Pools []int
	// Rotations lists the rotation settings to sweep (default
	// {false, true}).
	Rotations []bool
	// Faults lists the chaos plans to sweep (default: none, net-mixed,
	// slow-syscalls, group-restart, variant-crash, variant-stall).
	Faults []chaos.Plan
	// Attacks lists the attack modes to sweep: "none" and "forge-uid"
	// (the default is both).
	Attacks []string
	// Obs, when set, instruments every cell's stack on the registry.
	// Output JSON is byte-identical with and without Obs.
	Obs *obs.Registry
}

// Fixed campaign shape, reported in the matrix header.
const (
	// campaignGroups is each pool's fleet size.
	campaignGroups = 2
	// campaignProbes is the forged-UID probe count per attack cell.
	campaignProbes = 2
	// campaignRotateEvery is the rotation cadence in mesh ticks for
	// rotation-on cells.
	campaignRotateEvery uint64 = 6
	// campaignSessions is the benign session-key count.
	campaignSessions = 8
	// campaignRetryBudget is the sessions' retry budget — the
	// machinery that holds availability under the lossy plans.
	campaignRetryBudget = 6
)

func (c ChaosCampaignConfig) withDefaults() ChaosCampaignConfig {
	if c.Requests <= 0 {
		c.Requests = 24
	}
	if len(c.Pools) == 0 {
		c.Pools = []int{1, 2}
	}
	if len(c.Rotations) == 0 {
		c.Rotations = []bool{false, true}
	}
	if len(c.Faults) == 0 {
		c.Faults = defaultChaosPlans()
	}
	if len(c.Attacks) == 0 {
		c.Attacks = []string{"none", "forge-uid"}
	}
	return c
}

// defaultChaosPlans returns the fault plans the unified campaign
// sweeps by default: the no-fault control, the full data-plane mix,
// the syscall-boundary stall load, the deterministic group-crash plan,
// and the two variant faults a quorum survives.
func defaultChaosPlans() []chaos.Plan {
	var out []chaos.Plan
	for _, name := range []string{"none", "net-mixed", "slow-syscalls", "group-restart", "variant-crash", "variant-stall"} {
		p, err := chaos.PlanByName(name)
		if err != nil {
			panic(err) // the standard set always carries these
		}
		out = append(out, p)
	}
	return out
}

// ChaosCell is one P × rotation × fault × attack result.
type ChaosCell struct {
	// Pools / Rotation / Fault / Attack identify the cell (and derive
	// its seed).
	Pools    int    `json:"pools"`
	Rotation bool   `json:"rotation"`
	Fault    string `json:"fault"`
	Attack   string `json:"attack"`
	// Benign-phase outcomes, classified through the typed dispatch
	// taxonomy (quarantine windows and quorum-lost kills also count in
	// BenignErrs).
	BenignOK          int `json:"benign_ok"`
	BenignShed        int `json:"benign_shed"`
	BenignErrs        int `json:"benign_errs"`
	BenignQuarantines int `json:"benign_quarantine_errs"`
	BenignQuorumKills int `json:"benign_quorum_kill_errs"`
	// Availability is BenignOK over all benign outcomes (contract:
	// ≥ 0.99 under every swept plan — they are all non-crash at the
	// variant level).
	Availability float64 `json:"availability"`
	// Retry machinery outcomes across the whole cell.
	Retries      uint64 `json:"retries"`
	Reroutes     uint64 `json:"reroutes"`
	BackoffTicks uint64 `json:"backoff_ticks"`
	// Rotation and restart outcomes.
	Rotations        uint64 `json:"rotations"`
	RotationsSkipped uint64 `json:"rotations_skipped"`
	Restarts         int    `json:"restarts"`
	// Quorum evictions across the cell's pools and the degraded groups
	// respawned at full width (variant-fault plans only).
	Evictions int `json:"evictions,omitempty"`
	Respawned int `json:"respawned,omitempty"`
	// Exposure-window distribution: each retired group's teardown
	// VTime in virtual ticks (rendezvous events it lived through — the
	// attacker's probing window against one mask set). Rotation-off
	// benign cells have no samples: exposure is unbounded there, which
	// is the point of rotation.
	ExposureSamples int    `json:"exposure_samples"`
	ExposureP50     uint32 `json:"exposure_p50_vticks"`
	ExposureP99     uint32 `json:"exposure_p99_vticks"`
	// Attack outcomes.
	Probes          int  `json:"probes"`
	Detections      int  `json:"detections"`
	Leaked          bool `json:"leaked"`
	MissedDetection bool `json:"missed_detection"`
	FalseAlarm      bool `json:"false_alarm"`
}

// ChaosCampaignSummary is the matrix headline.
type ChaosCampaignSummary struct {
	Cells           int     `json:"cells"`
	BenignOK        int     `json:"benign_ok"`
	BenignShed      int     `json:"benign_shed"`
	BenignErrs      int     `json:"benign_errs"`
	MinAvailability float64 `json:"min_availability"`
	Retries         uint64  `json:"retries"`
	Reroutes        uint64  `json:"reroutes"`
	BackoffTicks    uint64  `json:"backoff_ticks"`
	Rotations       uint64  `json:"rotations"`
	Restarts        int     `json:"restarts"`
	Probes          int     `json:"probes"`
	Detections      int     `json:"detections"`
	FalseAlarms     int     `json:"false_alarms"`
	Leaks           int     `json:"leaks"`
}

// ChaosCampaignResult is the full deterministic matrix.
type ChaosCampaignResult struct {
	Seed         int64                `json:"seed"`
	Requests     int                  `json:"requests_per_cell"`
	Groups       int                  `json:"groups_per_pool"`
	RotateEvery  uint64               `json:"rotate_every"`
	RetryBudget  int                  `json:"retry_budget"`
	RetryBackoff uint64               `json:"retry_backoff_ticks"`
	Policy       string               `json:"policy"`
	Cells        []ChaosCell          `json:"cells"`
	Summary      ChaosCampaignSummary `json:"summary"`
}

// JSON renders the matrix with a trailing newline, byte-identical per
// seed.
func (r *ChaosCampaignResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Check returns the list of contract violations in the matrix:
// availability under the 99% floor, missed detections, false alarms,
// leaks, retry counters inconsistent with the backoff cadence,
// rotation accounting that contradicts the cell's configuration, and
// quorum evictions that are missing, unrespawned, or outside a
// variant-fault plan.
func (r *ChaosCampaignResult) Check() []string {
	var v []string
	for _, c := range r.Cells {
		id := fmt.Sprintf("cell p=%d rotation=%t fault=%s attack=%s", c.Pools, c.Rotation, c.Fault, c.Attack)
		if c.Availability < 0.99 {
			v = append(v, fmt.Sprintf("%s: availability %.4f < 0.99", id, c.Availability))
		}
		if c.MissedDetection {
			v = append(v, id+": missed detection")
		}
		if c.FalseAlarm {
			v = append(v, id+": false alarm")
		}
		if c.Leaked {
			v = append(v, id+": secret leaked")
		}
		// Retry/backoff cadence consistency: backoff is charged per
		// retry at >= the base, re-routes are a subset of retries, and
		// the no-fault control cells must need no retries at all.
		switch {
		case c.Retries == 0 && (c.BackoffTicks != 0 || c.Reroutes != 0):
			v = append(v, fmt.Sprintf("%s: backoff/reroutes without retries (%d/%d)", id, c.BackoffTicks, c.Reroutes))
		case c.Retries > 0 && c.BackoffTicks < c.Retries*r.RetryBackoff:
			v = append(v, fmt.Sprintf("%s: %d retries charged only %d backoff ticks (base %d)", id, c.Retries, c.BackoffTicks, r.RetryBackoff))
		case c.Reroutes > c.Retries:
			v = append(v, fmt.Sprintf("%s: %d reroutes > %d retries", id, c.Reroutes, c.Retries))
		}
		if c.Fault == "none" && c.Attack == "none" && c.Retries != 0 {
			v = append(v, fmt.Sprintf("%s: %d retries in the no-fault control", id, c.Retries))
		}
		if !c.Rotation && c.Rotations != 0 {
			v = append(v, id+": rotation disabled but counted")
		}
		if c.Rotation && c.Fault == "none" && c.Rotations == 0 {
			v = append(v, id+": rotation enabled but none completed")
		}
		if c.Fault == "group-restart" && c.Restarts == 0 {
			v = append(v, id+": group-restart plan drove no restarts")
		}
		plan, err := chaos.PlanByName(c.Fault)
		switch quorum := err == nil && plan.VariantFault(); {
		case quorum && c.Evictions < 1:
			v = append(v, id+": variant-fault plan evicted no variant")
		case !quorum && c.Evictions != 0:
			v = append(v, fmt.Sprintf("%s: %d evictions without a variant-fault plan", id, c.Evictions))
		}
		if c.Respawned != c.Evictions {
			v = append(v, fmt.Sprintf("%s: %d evictions but %d respawns", id, c.Evictions, c.Respawned))
		}
	}
	return v
}

// Fprint writes the human-readable matrix summary.
func (r *ChaosCampaignResult) Fprint(w io.Writer) {
	s := r.Summary
	fmt.Fprintf(w, "Unified mesh×chaos campaign (seed %d, policy %s, retry budget %d): %d cells\n",
		r.Seed, r.Policy, r.RetryBudget, s.Cells)
	fmt.Fprintf(w, "  benign: %d ok, %d shed, %d errors; min availability %.4f\n",
		s.BenignOK, s.BenignShed, s.BenignErrs, s.MinAvailability)
	fmt.Fprintf(w, "  retries: %d (%d rerouted, %d backoff ticks); rotations %d; restarts %d\n",
		s.Retries, s.Reroutes, s.BackoffTicks, s.Rotations, s.Restarts)
	fmt.Fprintf(w, "  detections %d/%d probes; false alarms %d; leaks %d\n",
		s.Detections, s.Probes, s.FalseAlarms, s.Leaks)
	fmt.Fprintf(w, "  %-6s %-9s %-14s %-10s %12s %8s %9s %8s %10s\n",
		"pools", "rotation", "fault", "attack", "availability", "retries", "reroutes", "backoff", "rotations")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-6d %-9t %-14s %-10s %12.4f %8d %9d %8d %10d\n",
			c.Pools, c.Rotation, c.Fault, c.Attack, c.Availability, c.Retries, c.Reroutes, c.BackoffTicks, c.Rotations)
	}
}

// RunChaosCampaign executes the unified campaign and returns the
// matrix.
func RunChaosCampaign(cfg ChaosCampaignConfig) (*ChaosCampaignResult, error) {
	cfg = cfg.withDefaults()
	for _, p := range cfg.Pools {
		if p < 1 {
			return nil, fmt.Errorf("mesh chaos campaign: pool count %d < 1", p)
		}
	}
	for _, att := range cfg.Attacks {
		if att != "none" && att != "forge-uid" {
			return nil, fmt.Errorf("mesh chaos campaign: unknown attack %q (none, forge-uid)", att)
		}
	}
	res := &ChaosCampaignResult{
		Seed:         cfg.Seed,
		Requests:     cfg.Requests,
		Groups:       campaignGroups,
		RotateEvery:  campaignRotateEvery,
		RetryBudget:  campaignRetryBudget,
		RetryBackoff: retryBackoff,
		Policy:       HashRouting.String(),
	}
	for _, p := range cfg.Pools {
		for _, rotation := range cfg.Rotations {
			for _, plan := range cfg.Faults {
				for _, att := range cfg.Attacks {
					cell, err := runChaosCell(cfg, p, rotation, plan, att)
					if err != nil {
						return nil, fmt.Errorf("mesh chaos campaign: cell p=%d rotation=%t fault=%s attack=%s: %w",
							p, rotation, plan.Name, att, err)
					}
					res.Cells = append(res.Cells, cell)
				}
			}
		}
	}
	res.Summary = summarizeChaosCampaign(res)
	return res, nil
}

// runChaosCell runs one P × rotation × fault × attack cell.
func runChaosCell(cfg ChaosCampaignConfig, pools int, rotation bool, plan chaos.Plan, att string) (ChaosCell, error) {
	cell := ChaosCell{Pools: pools, Rotation: rotation, Fault: plan.Name, Attack: att}
	seed := campaignCellSeed(cfg.Seed, "meshchaos", fmt.Sprint(pools), fmt.Sprint(rotation), plan.Name, att)
	quorum := plan.VariantFault()

	opts := Options{
		Pools:       pools,
		Seed:        seed,
		RetryBudget: campaignRetryBudget,
		Obs:         cfg.Obs,
		Fleet: fleet.Options{
			Groups: campaignGroups,
			Server: httpd.DefaultOptions(),
		},
	}
	if rotation {
		opts.RotateEvery = campaignRotateEvery
	}
	if quorum {
		opts.Fleet.Variants = chaos.QuorumK + 1
		opts.Fleet.Quorum = chaos.QuorumK
	}
	// Thread the plan into every pool: each pool's injector and hook
	// draw from the pool's own derived seed (offset so the two streams
	// decorrelate), and the fleet carries them into every group it
	// spawns — including rotation replacements and respawns.
	if plan.Net != nil {
		np := plan.Net
		opts.Faults = func(poolSeed int64) simnet.FaultInjector { return np.Injector(poolSeed + 1) }
	}
	if plan.Kernel != nil {
		kp := plan.Kernel
		opts.Kernel = func(poolSeed int64) []nvkernel.Option {
			ko := []nvkernel.Option{nvkernel.WithFaultHook(kp.Hook(poolSeed + 2))}
			if quorum {
				ko = append(ko, nvkernel.WithTimeout(chaos.QuorumTimeout))
			}
			return ko
		}
	}
	m, err := New(opts)
	if err != nil {
		return cell, err
	}
	defer func() { _, _ = m.Stop() }()

	sessions := make([]*Session, campaignSessions)
	for i := range sessions {
		sessions[i] = m.Session(fmt.Sprintf("client-%d", i))
	}

	// Benign phase, serialized, with restart-under-load: before every
	// RestartEvery-th request the plan shuts down the oldest group of a
	// deterministically walked pool, and the cell waits for the
	// replacement before dispatching on — the group-crash fault the
	// mesh must absorb without losing a request. Variant-fault cells
	// likewise wait for every pool to be back at full width after each
	// request.
	for r := 0; r < cfg.Requests; r++ {
		if plan.RestartEvery > 0 && r > 0 && r%plan.RestartEvery == 0 {
			f := m.Pool((r/plan.RestartEvery - 1) % pools)
			before := f.Stats().Replaced
			if f.ShutdownGroup(f.OldestGroupID()) {
				if err := awaitFullWidth(f, func(s fleet.Stats) bool { return s.Replaced > before }); err != nil {
					return cell, err
				}
				cell.Restarts++
			}
		}
		code, _, err := sessions[r%len(sessions)].Get(benignMix[r%len(benignMix)])
		switch {
		case errors.Is(err, ErrSaturated):
			cell.BenignShed++
		case err == nil && code == 200:
			cell.BenignOK++
		case errors.Is(err, ErrQuorumLostKill):
			cell.BenignQuorumKills++
			cell.BenignErrs++
		case errors.Is(err, ErrQuarantineWindow):
			cell.BenignQuarantines++
			cell.BenignErrs++
		default:
			cell.BenignErrs++
		}
		if err := m.settleControllers(); err != nil {
			return cell, err
		}
		for i := 0; quorum && i < pools; i++ {
			if err := awaitFullWidth(m.Pool(i), nil); err != nil {
				return cell, err
			}
		}
	}
	cell.Availability = availability(cell.BenignOK, cell.BenignShed, cell.BenignErrs)

	// Attack phase: forged-UID probes against the pool each attacker
	// key routes to, striking its oldest group directly (the
	// attacker-knows-a-backend model, see strikeOldest).
	// The direct client rides the pool's faulted network segment, so
	// the adaptive probe rounds also prove detection is not maskable
	// by the fault plan. Serialized probe-and-await keeps detection
	// counts settled.
	if att == "forge-uid" {
		cell.Probes = campaignProbes
		rng := rand.New(rand.NewSource(seed + 3))
		perPool := make([]int, pools)
		for i := 0; i < campaignProbes; i++ {
			pi := m.RouteKey(fmt.Sprintf("attacker-%d", i))
			f := m.Pool(pi)
			if quorum && f.Stats().Evictions == 0 {
				// The benign phase never reached this pool, so its variant
				// fault is still armed and would fire inside the strike,
				// racing the respawn against the alarm. Fire it with one
				// benign request and settle first.
				if port, ok := healthyPort(f.Stats(), f.OldestGroupID()); ok {
					_, _, _ = httpd.NewClient(f.Net(), port).Get(benignMix[0])
				}
				if err := awaitFullWidth(f, nil); err != nil {
					return cell, err
				}
			}
			detected, leaked := strikeOldest(f, rng)
			cell.Leaked = cell.Leaked || leaked
			if !detected {
				break
			}
			perPool[pi]++
			want := perPool[pi]
			if err := awaitFullWidth(f, func(s fleet.Stats) bool { return s.Detections >= want }); err != nil {
				return cell, err
			}
		}
	}

	stats, err := m.Stop()
	if err != nil {
		return cell, err
	}
	cell.Retries = stats.Retries
	cell.Reroutes = stats.Reroutes
	cell.BackoffTicks = stats.BackoffTicks
	cell.Rotations = stats.Rotations
	cell.RotationsSkipped = stats.RotationsSkipped
	for _, ps := range stats.Pools {
		cell.Detections += ps.Fleet.Detections
		cell.Evictions += ps.Fleet.Evictions
		cell.Respawned += ps.Fleet.Respawned
	}
	cell.MissedDetection = cell.Detections < cell.Probes
	cell.FalseAlarm = cell.Detections > cell.Probes

	// Exposure windows: every retired group's teardown VTime, in
	// virtual ticks, from the pools' audit trails. Rotations and
	// quarantines both end a mask set's exposure; clean departures are
	// not attacker-relevant retirements. Only plans without
	// message reordering are sampled: a reorder hold releases its
	// message on a wall-clock timer, so the server-side rendezvous it
	// triggers race the drain point and the torn-down group's vtick age
	// would not replay byte-identically. Every other
	// fault (drop, truncate, delay, syscall stalls, restarts) resolves
	// synchronously inside the serialized request, so its vticks are
	// seed-pure.
	var samples []uint32
	if plan.Net == nil || plan.Net.ReorderRate == 0 {
		for i := 0; i < m.Pools(); i++ {
			for _, e := range m.Pool(i).Audit().Entries() {
				switch e.Action {
				case "rotate", "rotate+replace", "quarantine", "quarantine+replace":
					samples = append(samples, e.VTime)
				}
			}
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	cell.ExposureSamples = len(samples)
	cell.ExposureP50 = percentileVTicks(samples, 0.50)
	cell.ExposureP99 = percentileVTicks(samples, 0.99)
	return cell, nil
}

// awaitFullWidth waits until pool f is back at full strength — every
// group serving, every quorum eviction respawned, none degraded — and
// also holds when set: the settle step after restarts, variant faults
// and probes.
func awaitFullWidth(f *fleet.Fleet, also func(fleet.Stats) bool) error {
	return f.Await(func(s fleet.Stats) bool {
		return len(s.Healthy) >= campaignGroups && s.Respawned >= s.Evictions && s.DegradedGroups == 0 &&
			(also == nil || also(s))
	}, 30*time.Second)
}

// strikeOldest is one forged-UID probe with a payload drawn from rng,
// striking f's oldest healthy group *directly* (the
// attacker-knows-a-backend model): corruption stays confined to one
// deterministic victim, so the settled detection count is exactly the
// probe count. Through the dispatcher, a fault-severed exchange would
// force resends that spray corruption across round-robin-chosen groups
// — the recovery counters would then depend on alarm-observation
// timing and the matrix would not replay.
func strikeOldest(f *fleet.Fleet, rng *rand.Rand) (detected, leaked bool) {
	payload := attack.ForgeUIDPayload(word.Word(rng.Uint32()) &^ word.HighBit)
	id := f.OldestGroupID()
	port, ok := healthyPort(f.Stats(), id)
	if !ok {
		return false, false
	}
	return strikeGroup(f, id, port, payload)
}

// strikeGroup delivers a forged-UID payload to group id on port and
// fires trigger requests for its first use. It is adaptive — up to 8
// rounds of overwrite + 64 triggers, until the victim's port refuses
// (the monitor killed it) — so a fault plan cannot mask a detection.
// It stops once the group has left the pool: the fleet recycles a dead
// group's port, so a kill the fault plan turned into a dropped exchange
// must not leave the strike sending into the replacement. It reports
// whether the victim was killed and whether any trigger leaked the
// secret.
func strikeGroup(f *fleet.Fleet, id int, port uint16, payload []byte) (detected, leaked bool) {
	client := httpd.NewClient(f.Net(), port)
	gone := func() bool {
		_, ok := healthyPort(f.Stats(), id)
		return !ok
	}
	for round := 0; round < 8 && !detected; round++ {
		if gone() {
			return true, leaked // the pool already pruned the killed victim
		}
		if _, err := client.Raw(payload); errors.Is(err, simnet.ErrRefused) {
			return true, leaked // victim already killed by a prior round's trigger
		}
		for t := 0; t < 64 && !detected; t++ {
			if gone() {
				return true, leaked
			}
			code, body, err := client.Get("/private/secret.html")
			switch {
			case errors.Is(err, simnet.ErrRefused):
				detected = true
			case err == nil && code == 200 && httpd.ContainsSecret(body):
				leaked = true
			}
		}
	}
	return detected, leaked
}

// healthyPort resolves the port of the healthy group with the given
// id in s.
func healthyPort(s fleet.Stats, id int) (uint16, bool) {
	for _, g := range s.Healthy {
		if g.ID == id {
			return g.Port, true
		}
	}
	return 0, false
}

// campaignCellSeed derives one cell's seed from the campaign seed and
// the cell labels via the chaos campaign's FNV+splitmix scheme —
// independent of sweep order, so a narrowed rerun (one cell's labels)
// replays that cell exactly. The zero guard exists because
// mesh.Options treats Seed 0 as "use the default".
func campaignCellSeed(seed int64, parts ...string) int64 {
	s := chaos.CellSeed(seed, parts...)
	if s == 0 {
		s = 1
	}
	return s
}

// benignMix is the serialized benign-phase request mix.
var benignMix = []string{"/index.html", "/page1.html", "/styles.css"}

// availability is the benign-phase served ratio.
func availability(ok, shed, errs int) float64 {
	total := ok + shed + errs
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// percentileVTicks is the nearest-rank percentile of sorted samples.
func percentileVTicks(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarizeChaosCampaign computes the headline from the matrix.
func summarizeChaosCampaign(r *ChaosCampaignResult) ChaosCampaignSummary {
	s := ChaosCampaignSummary{Cells: len(r.Cells), MinAvailability: 1}
	for _, c := range r.Cells {
		s.BenignOK += c.BenignOK
		s.BenignShed += c.BenignShed
		s.BenignErrs += c.BenignErrs
		if c.Availability < s.MinAvailability {
			s.MinAvailability = c.Availability
		}
		s.Retries += c.Retries
		s.Reroutes += c.Reroutes
		s.BackoffTicks += c.BackoffTicks
		s.Rotations += c.Rotations
		s.Restarts += c.Restarts
		s.Probes += c.Probes
		s.Detections += c.Detections
		if c.FalseAlarm {
			s.FalseAlarms++
		}
		if c.Leaked {
			s.Leaks++
		}
	}
	return s
}
