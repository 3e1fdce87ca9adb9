package main

import (
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// latHist is a log-linear latency histogram: exact below 128 ns, then
// 64 buckets per power of two, so a percentile read from it is within
// 0.8% of the sample it stands for. It covers up to 2^40 ns.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histSub     = 64
	histBuckets = 35 * histSub
)

// histIndex maps a duration in ns to its bucket.
func histIndex(ns int64) int {
	if ns < 2*histSub {
		return int(max(ns, 0))
	}
	shift := bits.Len64(uint64(ns)) - 7
	return min(shift*histSub+int(ns>>shift), histBuckets-1)
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	low := int64(i%histSub+histSub) << shift
	return float64(low) + float64(int64(1)<<shift)/2
}

func (h *latHist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0–100) in ns: the bucket
// holding the sample of rank p/100·(n-1).
func (h *latHist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.n-1))
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks. It sorts xs in place.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	if lo+1 >= len(xs) {
		return float64(xs[lo])
	}
	frac := rank - float64(lo)
	return float64(xs[lo]) + frac*float64(xs[lo+1]-xs[lo])
}

// median of float samples; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// midMean returns the mean of the middle half of xs, the
// interquartile mean. It sorts xs in place.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quartiles returns Q1, the median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so the steadiness report agrees with other tooling.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's CPUs, summed over them, from the steal column of
// /proc/stat. It returns 0 where that is not available.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat, on Linux.
const clockTicks = 100

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
