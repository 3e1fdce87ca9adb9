// Package webbench reproduces the role of WebBench 5.0 [41] in the
// paper's evaluation: closed-loop client engines issuing a mix of
// static page requests while measuring throughput (KB/s) and latency
// (ms). The paper's two operating points are one engine on one client
// machine (unsaturated) and 3 machines × 5 engines = 15 engines
// (saturated).
package webbench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/simnet"
)

// DefaultMix is the static-page request mix (a spread of sizes like
// WebBench's standard static workload tree).
func DefaultMix() []string {
	return []string{
		"/index.html",
		"/page1.html",
		"/page2.html",
		"/page3.html",
		"/about.html",
		"/styles.css",
		"/logo.gif",
	}
}

// Options configures a load run.
type Options struct {
	// Engines is the number of concurrent client engines (1 =
	// unsaturated, 15 = the paper's saturated load).
	Engines int
	// RequestsPerEngine is how many requests each engine issues.
	RequestsPerEngine int
	// Mix is the URI list engines round-robin over (DefaultMix if
	// empty).
	Mix []string
}

// Metrics aggregates a load run's results.
type Metrics struct {
	// Requests is the number of completed requests.
	Requests int
	// Errors counts failed requests (connection or non-200 status).
	Errors int
	// Bytes is the total response bytes received.
	Bytes int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TotalLatency is the sum of per-request latencies.
	TotalLatency time.Duration
	// P50Latency is the median request latency.
	P50Latency time.Duration
	// P95Latency is the 95th-percentile request latency.
	P95Latency time.Duration
	// P99Latency is the 99th-percentile request latency (the tail a
	// fleet's quarantine windows show up in).
	P99Latency time.Duration
}

// percentileSorted interpolates the p-th percentile over an ascending
// slice using linear interpolation between closest ranks, so
// even-length samples behave consistently (the p50 of {10ms, 20ms} is
// 15ms, not an arbitrary pick of either endpoint): rank p/100·(n-1)
// split into its integer neighbors, lerped by the fractional part (the
// "linear" method of NumPy and most monitoring systems). p outside
// [0, 100] clamps to the extremes.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= n {
		return sorted[lo]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// ThroughputKBps returns throughput in kilobytes per second — the
// metric of Table 3.
func (m Metrics) ThroughputKBps() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Bytes) / 1024 / m.Elapsed.Seconds()
}

// MeanLatency returns the average request latency — the second metric
// of Table 3.
func (m Metrics) MeanLatency() time.Duration {
	if m.Requests == 0 {
		return 0
	}
	return m.TotalLatency / time.Duration(m.Requests)
}

// String renders the metrics as a Table 3 cell pair.
func (m Metrics) String() string {
	return fmt.Sprintf("throughput %.1f KB/s, latency %.3f ms (%d requests, %d errors)",
		m.ThroughputKBps(), float64(m.MeanLatency().Microseconds())/1000, m.Requests, m.Errors)
}

// Run drives the configured load against the server at port and
// aggregates metrics across engines.
func Run(net *simnet.Network, port uint16, opts Options) (Metrics, error) {
	if opts.Engines <= 0 {
		return Metrics{}, fmt.Errorf("webbench: engines must be positive, got %d", opts.Engines)
	}
	if opts.RequestsPerEngine <= 0 {
		return Metrics{}, fmt.Errorf("webbench: requests per engine must be positive, got %d", opts.RequestsPerEngine)
	}
	mix := opts.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}

	var (
		mu        sync.Mutex
		agg       Metrics
		latencies []time.Duration
	)
	// Request payloads are prebuilt once per mix entry and shared
	// read-only by all engines; responses go back to the network's
	// buffer pool after their length is taken. The engines therefore
	// allocate nothing per request — the bench measures the server.
	reqs := make([][]byte, len(mix))
	for i, uri := range mix {
		reqs[i] = httpd.AppendRequest(nil, uri)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for e := 0; e < opts.Engines; e++ {
		wg.Add(1)
		go func(engine int) {
			defer wg.Done()
			client := httpd.NewClient(net, port)
			local := Metrics{}
			localLat := make([]time.Duration, 0, opts.RequestsPerEngine)
			for r := 0; r < opts.RequestsPerEngine; r++ {
				req := reqs[(engine+r)%len(mix)]
				t0 := time.Now()
				code, n, err := client.Fetch(req)
				lat := time.Since(t0)
				if err != nil || code != 200 {
					local.Errors++
					continue
				}
				local.Requests++
				local.Bytes += int64(n)
				local.TotalLatency += lat
				localLat = append(localLat, lat)
			}
			mu.Lock()
			agg.Requests += local.Requests
			agg.Errors += local.Errors
			agg.Bytes += local.Bytes
			agg.TotalLatency += local.TotalLatency
			latencies = append(latencies, localLat...)
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	agg.Elapsed = time.Since(start)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		agg.P50Latency = percentileSorted(latencies, 50)
		agg.P95Latency = percentileSorted(latencies, 95)
		agg.P99Latency = percentileSorted(latencies, 99)
	}
	return agg, nil
}
