package mesh

// The typed dispatch-error taxonomy. Every way a session dispatch can
// fail resolves to an errors.Is-able sentinel, so campaigns and
// callers classify outcomes without string-matching:
//
//	ErrQuorumLostKill   the dispatch raced a quorum-lost group kill:
//	                    the monitor tore the group down because a
//	                    faulted variant's eviction would have dropped
//	                    it below K
//	ErrQuarantineWindow the dispatch raced a quarantine: the connection
//	                    died while the monitor was killing an alarmed
//	                    group
//	ErrBadResponse      a response arrived but carried a non-2xx status;
//	                    raised only on sessions with a retry budget,
//	                    where a known-good request's failure status can
//	                    only mean wire corruption or a mid-kill response
//	ErrRetriesExhausted the session's retry budget was spent without a
//	                    successful dispatch (wraps the last classified
//	                    attempt error)
//	ErrSettleTimeout    a retry's backoff fired rotation triggers that
//	                    were not handled within the recover timeout; the
//	                    retry is abandoned rather than dispatched
//	                    against an unsettled mesh
//
// Classification is counter-delta based and lock-free: the session
// snapshots the routed fleet's alarm and quorum-kill counters before
// the dispatch (two atomic loads, no allocation) and re-reads them on
// the error path. A transport error with an advanced counter is
// attributed to that recovery window; wrapping only happens on the
// error path, so the happy path stays allocation-free.

import (
	"errors"
	"fmt"
)

var (
	// ErrQuorumLostKill marks a dispatch error attributed to a
	// quorum-lost group kill in the routed pool.
	ErrQuorumLostKill = errors.New("mesh: dispatch hit a quorum-lost group kill")
	// ErrQuarantineWindow marks a dispatch error attributed to a
	// quarantine in the routed pool (an alarmed group torn down while
	// the request was in flight).
	ErrQuarantineWindow = errors.New("mesh: dispatch hit a quarantine window")
	// ErrBadResponse marks a dispatch that yielded a non-2xx status on
	// a session with a retry budget. Budgeted sessions assume the
	// request is well-formed against the known corpus, so a failure
	// status is a faulted dispatch to retry, not a result to return.
	// Sessions without a budget pass the status through untouched.
	ErrBadResponse = errors.New("mesh: dispatch returned a failure status")
	// ErrRetriesExhausted reports that a session's retry budget was
	// spent; it wraps the final attempt's classified error.
	ErrRetriesExhausted = errors.New("mesh: retry budget exhausted")
	// ErrSettleTimeout reports that a retry's charged backoff fired
	// controller triggers the control plane did not finish within the
	// recover timeout. Carrying on would dispatch against a mesh whose
	// rotation state depends on wall-clock timing, so the session
	// returns this instead.
	ErrSettleTimeout = errors.New("mesh: control plane did not settle")
)

// dispatchSentinels lists every sentinel a classified dispatch error
// can carry, in the order classification prefers them.
var dispatchSentinels = []error{ErrQuorumLostKill, ErrQuarantineWindow, ErrBadResponse, ErrRetriesExhausted, ErrSettleTimeout}

// dispatchErrorNames maps each sentinel to its stable matrix label.
var dispatchErrorNames = map[error]string{
	ErrQuorumLostKill:   "quorum-lost-kill",
	ErrQuarantineWindow: "quarantine-window",
	ErrBadResponse:      "bad-response",
	ErrRetriesExhausted: "retries-exhausted",
	ErrSettleTimeout:    "settle-timeout",
}

// DispatchErrorName returns the stable label of the sentinel err
// carries ("quorum-lost-kill", "quarantine-window", "bad-response",
// "retries-exhausted", "settle-timeout"), or "" when
// err matches none of them.
func DispatchErrorName(err error) string {
	for _, s := range dispatchSentinels {
		if errors.Is(err, s) {
			return dispatchErrorNames[s]
		}
	}
	return ""
}

// classifyDispatchError attributes a dispatch error to the recovery
// activity observed in the routed pool while the request was in
// flight: alarmDelta and quorumDelta are the advances of the fleet's
// alarm and quorum-kill counters across the dispatch. Quorum kills are
// a subset of alarms, so the more specific sentinel wins. ErrBadResponse
// (a response arrived, so no kill window can own it) and nil pass
// through untouched; only attributed errors allocate (a wrap on the
// error path).
func classifyDispatchError(err error, alarmDelta, quorumDelta uint64) error {
	switch {
	case err == nil || errors.Is(err, ErrBadResponse):
		return err
	case quorumDelta > 0:
		return fmt.Errorf("%w: %w", ErrQuorumLostKill, err)
	case alarmDelta > 0:
		return fmt.Errorf("%w: %w", ErrQuarantineWindow, err)
	default:
		return err
	}
}
