package mesh

import (
	"errors"
	"fmt"
	"testing"
)

// TestDispatchErrorRoundTrip: every sentinel carries its own stable
// label, and the label survives a round trip through wrapping — the
// property the mesh×chaos matrix relies on when it labels dispatch
// outcomes.
func TestDispatchErrorRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range dispatchSentinels {
		name := DispatchErrorName(s)
		if name == "" {
			t.Fatalf("sentinel %v has no stable label", s)
		}
		if seen[name] {
			t.Errorf("label %q names two sentinels", name)
		}
		seen[name] = true
		// Wrapped sentinels keep their label.
		wrapped := fmt.Errorf("outer context: %w", s)
		if got := DispatchErrorName(wrapped); got != name {
			t.Errorf("wrapped %q labeled %q", name, got)
		}
	}
	if got := DispatchErrorName(errors.New("unrelated")); got != "" {
		t.Errorf("unrelated error labeled %q, want empty", got)
	}
}

// TestClassifyDispatchError pins the attribution rules: quorum kills
// outrank quarantines, already-typed errors and nil pass through, and
// an un-raced transport error stays untyped.
func TestClassifyDispatchError(t *testing.T) {
	base := errors.New("connection reset")
	cases := []struct {
		name        string
		err         error
		alarms      uint64
		quorum      uint64
		wantLabel   string
		wantPassRaw bool
	}{
		{"nil passes", nil, 3, 3, "", true},
		{"bad-response passes", fmt.Errorf("%w: status 400", ErrBadResponse), 1, 0, "bad-response", false},
		{"quorum outranks quarantine", base, 2, 1, "quorum-lost-kill", false},
		{"quarantine window", base, 1, 0, "quarantine-window", false},
		{"unraced stays untyped", base, 0, 0, "", false},
	}
	for _, tc := range cases {
		got := classifyDispatchError(tc.err, tc.alarms, tc.quorum)
		if label := DispatchErrorName(got); label != tc.wantLabel {
			t.Errorf("%s: label %q, want %q", tc.name, label, tc.wantLabel)
		}
		if tc.wantPassRaw && !errors.Is(got, tc.err) && got != nil {
			t.Errorf("%s: classified error lost the original", tc.name)
		}
		if tc.err != nil && got != nil && !errors.Is(got, tc.err) {
			t.Errorf("%s: wrap dropped the underlying error", tc.name)
		}
	}
}
