package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/nvkernel"
)

// AuditEntry is one record of the fleet's recovery trail: a group left
// the pool and what the fleet did about it. Alarm-bearing entries are
// the detected attacks of the evaluation. Each entry carries two
// clocks: VTime, the group's deterministic virtual time (in-matrix,
// reproducible under a seed), and the wall-clock Time/Alarm.At pair
// the ops surface derives alarm-latency and exposure-window
// histograms from — wall timestamps never enter campaign JSON.
type AuditEntry struct {
	// Seq is the entry's position in the append-only log (from 1).
	Seq int `json:"seq"`
	// Time is when the fleet processed the group's exit — replacement
	// registration time for "+replace" actions.
	Time time.Time `json:"time"`
	// GroupID identifies the quarantined group.
	GroupID int `json:"group_id"`
	// Port was the group's listening port.
	Port uint16 `json:"port"`
	// Config is the group's Table 3 configuration.
	Config harness.Configuration `json:"config"`
	// Variants is the group's process-group size N.
	Variants int `json:"variants"`
	// R1 names the group's variant-1 effective UID reexpression
	// function.
	R1 string `json:"r1"`
	// VTime is the group's virtual clock at teardown — the
	// deterministic timestamp of the exit.
	VTime uint32 `json:"vtime"`
	// Alarm is the monitor's divergence report (nil when the group
	// exited without one, e.g. a variant fault with no alarm attached).
	Alarm *nvkernel.Alarm `json:"alarm,omitempty"`
	// Detail describes non-alarm exits and replacement failures.
	Detail string `json:"detail,omitempty"`
	// Action records the recovery taken ("quarantine+replace" in the
	// steady state; "quarantine" when no replacement was spawned).
	Action string `json:"action"`
	// ReplacementID is the fresh group's id, or -1 if none was spawned.
	ReplacementID int `json:"replacement_id"`
	// ReplacementR1 names the replacement's newly selected variant-1
	// function (empty if none).
	ReplacementR1 string `json:"replacement_r1,omitempty"`
}

// String renders the entry as one audit-log line.
func (e AuditEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s group=%d port=%d config=%q n=%d r1=%s vtime=%d",
		e.Seq, e.Time.Format(time.RFC3339Nano), e.GroupID, e.Port, e.Config, e.Variants, e.R1, e.VTime)
	if e.Alarm != nil {
		fmt.Fprintf(&b, " alarm=%s syscall=%s variant=%d", e.Alarm.Reason, e.Alarm.Syscall, e.Alarm.Variant)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	fmt.Fprintf(&b, " action=%s", e.Action)
	if e.ReplacementID >= 0 {
		fmt.Fprintf(&b, " replacement=%d r1'=%s", e.ReplacementID, e.ReplacementR1)
	}
	return b.String()
}

// AuditLog is the fleet's append-only recovery record. Entries are
// only ever appended, never mutated or removed; Seq numbers are dense
// and strictly increasing.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
}

// append stamps and stores the entry.
func (l *AuditLog) append(e AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = len(l.entries) + 1
	e.Time = time.Now()
	l.entries = append(l.entries, e)
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Len returns the number of recorded entries.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// TailNDJSON renders entries with Seq > since as newline-delimited
// JSON, at most max entries when max > 0, returning the rendered
// bytes and the last sequence number included (= since when nothing
// qualified). It implements obs.AuditSource, so /audit pollers can
// resume from their last seen entry with ?since=N.
func (l *AuditLog) TailNDJSON(since, max int) ([]byte, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := since
	var buf []byte
	for _, e := range l.entries {
		if e.Seq <= since {
			continue
		}
		line, err := json.Marshal(e)
		if err != nil {
			return nil, since, fmt.Errorf("audit: marshal entry %d: %w", e.Seq, err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		last = e.Seq
		if max > 0 && last-since >= max {
			break
		}
	}
	return buf, last, nil
}

// MultiAudit merges the recovery logs of several pools into one
// NDJSON tail for the ops /audit endpoint — the fleet-of-fleets view,
// so an operator watching a mesh sees every pool's quarantines and
// rotations, not just the newest fleet's. Entries are ordered by
// virtual time (each group's deterministic teardown stamp), then pool
// name, then per-log sequence; each line gains a "pool" field naming
// its source.
//
// The since/n cursor pages by position in the merged ordering. A pool
// appending a low-vtime entry after a poll can shift positions, so
// the tail is best-effort for live operators — the per-log AuditLog
// remains the exact record.
type MultiAudit struct {
	mu   sync.Mutex
	logs []namedAudit
}

type namedAudit struct {
	name string
	log  *AuditLog
}

// NewMultiAudit returns an empty merged audit source.
func NewMultiAudit() *MultiAudit { return &MultiAudit{} }

// Attach adds one pool's log under the given name. Safe to call while
// the source is being polled; logs are never detached (a retired
// pool's history stays visible).
func (m *MultiAudit) Attach(name string, l *AuditLog) {
	if l == nil {
		return
	}
	m.mu.Lock()
	m.logs = append(m.logs, namedAudit{name: name, log: l})
	m.mu.Unlock()
}

// taggedEntry is one merged line: the audit entry plus its pool name.
type taggedEntry struct {
	Pool string `json:"pool"`
	AuditEntry
}

// TailNDJSON implements obs.AuditSource over the merged ordering.
func (m *MultiAudit) TailNDJSON(since, max int) ([]byte, int, error) {
	m.mu.Lock()
	logs := append([]namedAudit(nil), m.logs...)
	m.mu.Unlock()
	if len(logs) == 0 {
		return nil, since, fmt.Errorf("no pool logs attached yet")
	}
	var merged []taggedEntry
	for _, nl := range logs {
		for _, e := range nl.log.Entries() {
			merged = append(merged, taggedEntry{Pool: nl.name, AuditEntry: e})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.VTime != b.VTime {
			return a.VTime < b.VTime
		}
		if a.Pool != b.Pool {
			return a.Pool < b.Pool
		}
		return a.Seq < b.Seq
	})
	last := since
	var buf []byte
	for i, e := range merged {
		if i < since {
			continue
		}
		line, err := json.Marshal(e)
		if err != nil {
			return nil, since, fmt.Errorf("audit: marshal merged entry %d: %w", i, err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		last = i + 1
		if max > 0 && last-since >= max {
			break
		}
	}
	return buf, last, nil
}
