package experiments

import (
	"strings"
	"testing"
	"time"

	"nvariant/internal/attack"
	"nvariant/internal/word"
)

// allPropertiesHold reports whether every Table 1 row passed both
// checks.
func allPropertiesHold(r Table1Result) bool {
	for _, row := range r.Rows {
		if !row.InverseHolds || !row.DisjointHolds {
			return false
		}
	}
	return len(r.Rows) > 0
}

// allBehave reports whether every Table 2 call passed both
// behavioural checks. (cond_chk's "identical args" case is the
// divergent-condition case.)
func allBehave(r Table2Result) bool {
	for _, row := range r.Rows {
		if !row.AgreeClean || !row.DivergeDetected {
			return false
		}
	}
	return len(r.Rows) > 0
}

// undetectedUnderFullFlip lists undetected write-style corruptions
// under the ideal mask (the paper's argument implies none).
func undetectedUnderFullFlip(r OverwriteResult) []string {
	var out []string
	for _, row := range r.Rows {
		if row.Style == attack.StyleWrite && row.FullFlip == attack.OutcomeCorrupted {
			out = append(out, row.Name)
		}
	}
	return out
}

func TestTable1AllPropertiesHold(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if !allPropertiesHold(res) {
		t.Errorf("property violation in Table 1: %+v", res.Rows)
	}
	var b strings.Builder
	res.Fprint(&b)
	for _, want := range []string{"UID Variation", "xor(0x7FFFFFFF)", "Address Space Partitioning"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestUIDRepresentationExamples(t *testing.T) {
	reps, err := UIDRepresentationExamples([]word.Word{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	// Root: R0 = 0, R1 = 0x7FFFFFFF (§3.2).
	if reps[0][1] != 0 || reps[0][2] != 0x7FFFFFFF {
		t.Errorf("root representations = %v", reps[0])
	}
	if reps[1][1] != 30 || reps[1][2] != 30^0x7FFFFFFF {
		t.Errorf("wwwrun representations = %v", reps[1])
	}
}

func TestTable2AllBehave(t *testing.T) {
	res, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (Table 2 lists 8 calls)", len(res.Rows))
	}
	if !allBehave(res) {
		t.Errorf("detection call misbehaved: %+v", res.Rows)
	}
	var b strings.Builder
	res.Fprint(&b)
	for _, want := range []string{"uid_value", "cond_chk", "cc_eq", "cc_geq", "DETECTED"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestFigure1Detection(t *testing.T) {
	res, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if res.TwoVariantDetected != res.Injections {
		t.Errorf("two-variant detections = %d / %d, want all", res.TwoVariantDetected, res.Injections)
	}
	// The exploit works single-variant only when aimed at the right
	// partition: the three low-partition addresses.
	if res.SingleVariantSucceeded != 3 {
		t.Errorf("single-variant successes = %d, want 3", res.SingleVariantSucceeded)
	}
	var b strings.Builder
	res.Fprint(&b)
	if !strings.Contains(b.String(), "Figure 1") {
		t.Error("rendering missing title")
	}
}

func TestFigure2Dataflow(t *testing.T) {
	res, err := RunFigure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrustedClean != res.TrustedRuns {
		t.Errorf("trusted flows clean = %d / %d (false alarms!)", res.TrustedClean, res.TrustedRuns)
	}
	if res.InjectedDetected != res.InjectedRuns {
		t.Errorf("injected flows detected = %d / %d", res.InjectedDetected, res.InjectedRuns)
	}
	var b strings.Builder
	res.Fprint(&b)
	if !strings.Contains(b.String(), "disjoint inverses") {
		t.Error("rendering missing detection line")
	}
}

func TestOverwriteCampaign(t *testing.T) {
	res, err := RunOverwriteCampaign()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: within its threat model (write-style
	// corruption), the ONLY undetected corruption under the deployed
	// mask is the high-bit overwrite (§3.2).
	undet := res.UndetectedUnderUIDMask()
	for _, name := range undet {
		if !strings.Contains(name, "high-bit") && !strings.Contains(name, "bit[31]") {
			t.Errorf("unexpected undetected write under deployed mask: %s", name)
		}
	}
	if len(undet) == 0 {
		t.Error("expected the high-bit residual to survive the deployed mask")
	}
	// The ideal mask closes every write-style gap.
	if w := undetectedUnderFullFlip(res); len(w) != 0 {
		t.Errorf("full flip left undetected writes: %v", w)
	}
	// Flip-style faults commute with XOR masks: every effective flip
	// corrupts undetected, delineating the protected class boundary.
	if flips := res.FlipFaultsUndetected(); len(flips) != 32 {
		t.Errorf("flip faults undetected = %d, want 32 (XOR commutes with flips)", len(flips))
	}
	var b strings.Builder
	res.Fprint(&b)
	if !strings.Contains(b.String(), "0x7FFFFFFF") {
		t.Error("rendering missing mask column")
	}
}

func TestOverwriteCampaignGranularityCoverage(t *testing.T) {
	res, err := RunOverwriteCampaign()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[attack.Granularity]int{}
	for _, row := range res.Rows {
		seen[row.Granularity]++
	}
	if seen[attack.GranWord] < 3 || seen[attack.GranByte] < 8 || seen[attack.GranBit] < 32 {
		t.Errorf("campaign coverage too thin: %v", seen)
	}
}

func TestTable3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 takes seconds")
	}
	opts := Table3Options{
		UnsatRequests:        80,
		SatEngines:           10,
		SatRequestsPerEngine: 25,
		WorkFactor:           400,
		Latency:              500 * time.Microsecond,
		SingleCPU:            true,
	}
	res, err := RunTable3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Errors != 0 {
			t.Errorf("%s: %d request errors", row.Config, row.Errors)
		}
		if row.Unsaturated.ThroughputKBps <= 0 || row.Saturated.ThroughputKBps <= 0 {
			t.Errorf("%s: nonpositive throughput %+v", row.Config, row)
		}
	}
	// The shape, asserted on counts rather than wall-clock ratios
	// (ShapeHolds stays the printed check of cmd/webbench): every
	// configuration served the same requests, the 2-variant systems run
	// each syscall once per variant in lockstep, and the UID variation
	// adds one uid_value detection call per request.
	c1, c2, c3, c4 := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	requests := opts.UnsatRequests + opts.SatEngines*opts.SatRequestsPerEngine
	for _, row := range res.Rows {
		if row.Requests != requests {
			t.Errorf("%s: %d requests, want %d", row.Config, row.Requests, requests)
		}
	}
	if c3.VariantSyscalls != 2*c1.VariantSyscalls || c4.VariantSyscalls != 2*c2.VariantSyscalls {
		t.Errorf("variant syscalls: config3 %d, config4 %d; want twice config1 %d and config2 %d",
			c3.VariantSyscalls, c4.VariantSyscalls, c1.VariantSyscalls, c2.VariantSyscalls)
	}
	if c2.VariantSyscalls-c1.VariantSyscalls < requests {
		t.Errorf("transformation added %d syscalls over %d requests, want at least one per request",
			c2.VariantSyscalls-c1.VariantSyscalls, requests)
	}
	var b strings.Builder
	res.Fprint(&b)
	for _, want := range []string{"Table 3", "Unmodified Apache", "2-Variant UID", "(paper)", "variant syscalls per request"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestPaperTable3Values(t *testing.T) {
	p := PaperTable3()
	if len(p) != 4 {
		t.Fatalf("paper rows = %d", len(p))
	}
	if p[0].Saturated.ThroughputKBps != 5420 || p[3].Saturated.ThroughputKBps != 2262 {
		t.Error("paper values drifted from Table 3")
	}
}

// TestNSweepAllNsDetect is the DiversitySpec acceptance criterion:
// RunNSweep runs green for N ∈ {2,3,4,5} — every attack trial is
// detected, nothing leaks, and benign load raises no false alarm.
func TestNSweepAllNsDetect(t *testing.T) {
	opts := DefaultNSweepOptions()
	opts.Engines = 4
	opts.RequestsPerEngine = 6
	opts.WorkFactor = 50
	opts.Trials = 2
	r, err := RunNSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.N != opts.Ns[i] {
			t.Errorf("row %d: N = %d, want %d", i, row.N, opts.Ns[i])
		}
		if row.Detections != row.Trials {
			t.Errorf("N=%d: detections = %d/%d (every planted attack must trigger)", row.N, row.Detections, row.Trials)
		}
		if row.Leaks != 0 {
			t.Errorf("N=%d: %d secret disclosures", row.N, row.Leaks)
		}
		if row.DetectionRate() != 1.0 {
			t.Errorf("N=%d: detection rate = %.2f", row.N, row.DetectionRate())
		}
		if row.Load.Requests == 0 || row.Load.Errors != 0 {
			t.Errorf("N=%d: load metrics = %+v", row.N, row.Load)
		}
	}
}

func TestNSweepRejectsBadSizing(t *testing.T) {
	if _, err := RunNSweep(NSweepOptions{Engines: -1}); err == nil {
		t.Error("negative engines accepted")
	}
	if _, err := RunNSweep(NSweepOptions{Ns: []int{1}, Engines: 1, RequestsPerEngine: 1}); err == nil {
		t.Error("N=1 accepted")
	}
}
