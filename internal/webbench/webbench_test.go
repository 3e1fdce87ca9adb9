package webbench

import (
	"sort"
	"strings"
	"testing"
	"time"

	"nvariant/internal/harness"
	"nvariant/internal/httpd"
)

func TestRunAgainstConfig1(t *testing.T) {
	h, err := harness.Start(harness.Config1Unmodified, httpd.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(h.Net, h.Port, Options{Engines: 2, RequestsPerEngine: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 20 || m.Errors != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.Bytes == 0 || m.ThroughputKBps() <= 0 || m.MeanLatency() <= 0 {
		t.Errorf("degenerate metrics: %+v", m)
	}
	if m.P95Latency < m.MeanLatency()/2 {
		t.Errorf("p95 %v implausibly below mean %v", m.P95Latency, m.MeanLatency())
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("alarm under benign load: %+v", res.Alarm)
	}
}

func TestRunAgainstUIDVariation(t *testing.T) {
	// The full 2-variant UID configuration must sustain benign load
	// with zero false alarms — the paper's deployability claim.
	h, err := harness.Start(harness.Config4UIDVariation, httpd.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(h.Net, h.Port, Options{Engines: 4, RequestsPerEngine: 15})
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d", m.Errors)
	}
	res, err := h.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("false alarm under benign load: %+v", res.Alarm)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(nil, 0, Options{Engines: 0, RequestsPerEngine: 1}); err == nil {
		t.Error("zero engines accepted")
	}
	if _, err := Run(nil, 0, Options{Engines: 1, RequestsPerEngine: 0}); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{
		Requests:     10,
		Bytes:        10240,
		Elapsed:      time.Second,
		TotalLatency: 100 * time.Millisecond,
	}
	if got := m.ThroughputKBps(); got != 10 {
		t.Errorf("throughput = %v, want 10", got)
	}
	if got := m.MeanLatency(); got != 10*time.Millisecond {
		t.Errorf("mean latency = %v, want 10ms", got)
	}
	if !strings.Contains(m.String(), "10.0 KB/s") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestMetricsZeroSafe(t *testing.T) {
	var m Metrics
	if m.ThroughputKBps() != 0 || m.MeanLatency() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
}

func TestPercentileMath(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// 1..100 ms: interpolated rank p/100·99 between neighbors.
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = ms(i + 1)
	}
	tests := []struct {
		name string
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{"empty", nil, 95, 0},
		{"single", []time.Duration{ms(7)}, 50, ms(7)},
		{"single-p99", []time.Duration{ms(7)}, 99, ms(7)},
		// p50 of an even-length sample is the true median — the
		// consistency the interpolation fix buys.
		{"two-p50", []time.Duration{ms(10), ms(20)}, 50, ms(15)},
		{"hundred-p50", hundred, 50, ms(50) + 500*time.Microsecond},
		{"hundred-p100", hundred, 100, ms(100)},
		{"four-p25", []time.Duration{ms(4), ms(1), ms(3), ms(2)}, 25, ms(1) + 750*time.Microsecond},
		{"five-p50", []time.Duration{ms(5), ms(1), ms(4), ms(2), ms(3)}, 50, ms(3)},
		{"five-p25", []time.Duration{ms(5), ms(1), ms(4), ms(2), ms(3)}, 25, ms(2)},
		{"five-p75", []time.Duration{ms(5), ms(1), ms(4), ms(2), ms(3)}, 75, ms(4)},
		{"clamp-low", []time.Duration{ms(10), ms(20)}, 0, ms(10)},
		{"clamp-high", []time.Duration{ms(10), ms(20)}, 120, ms(20)},
	}
	for _, tc := range tests {
		if got := percentileOf(tc.in, tc.p); got != tc.want {
			t.Errorf("%s: percentile(p=%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	// Fractional ranks that are not exactly representable in binary
	// get a tolerance instead of exact equality.
	approx := []struct {
		name string
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{"hundred-p95", hundred, 95, ms(95) + 50*time.Microsecond},
		{"hundred-p99", hundred, 99, ms(99) + 10*time.Microsecond},
		{"five-p99", []time.Duration{ms(5), ms(1), ms(4), ms(2), ms(3)}, 99, ms(4) + 960*time.Microsecond},
	}
	for _, tc := range approx {
		got := percentileOf(tc.in, tc.p)
		diff := got - tc.want
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Microsecond {
			t.Errorf("%s: percentile(p=%v) = %v, want %v ±1µs", tc.name, tc.p, got, tc.want)
		}
	}
}

// percentileOf sorts a copy of in and takes its p-th percentile, the
// way Run reduces its latency samples.
func percentileOf(in []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), in...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentileSorted(sorted, p)
}

func TestRunReportsPercentiles(t *testing.T) {
	h, err := harness.Start(harness.Config1Unmodified, httpd.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(h.Net, h.Port, Options{Engines: 2, RequestsPerEngine: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if m.P50Latency <= 0 || m.P95Latency <= 0 || m.P99Latency <= 0 {
		t.Fatalf("percentiles not populated: %+v", m)
	}
	if m.P50Latency > m.P95Latency || m.P95Latency > m.P99Latency {
		t.Errorf("percentiles out of order: p50=%v p95=%v p99=%v",
			m.P50Latency, m.P95Latency, m.P99Latency)
	}
}

func TestDefaultMixCoversSizes(t *testing.T) {
	mix := DefaultMix()
	if len(mix) < 5 {
		t.Errorf("mix too small: %v", mix)
	}
	for _, uri := range mix {
		if !strings.HasPrefix(uri, "/") {
			t.Errorf("bad mix entry %q", uri)
		}
	}
}
