// Package obs is the repo's zero-allocation metrics subsystem: atomic
// counters, gauges, and fixed-bucket duration histograms that layers
// register once at startup and update lock-free on their hot paths.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - Registration is idempotent: asking for an existing name+labels
//     returns the already-registered metric, so independent components
//     (every fleet.New, every campaign cell) aggregate into one series
//     instead of fighting over the name. Re-registering a *Func metric
//     replaces its callback — latest instance wins.
//   - Updates are single atomic operations: no locks, no maps, and no
//     allocations on the update path. Histograms bucket int64
//     nanoseconds against precomputed bounds.
//   - Sampling (WritePrometheus) takes the registry lock but only
//     reads atomics, so it never blocks an updater.
//
// The package depends only on the standard library and is imported by
// every instrumented layer; it must never import them back.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a signed value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration histogram. Bounds are given in
// seconds at registration (Prometheus convention) and compared as
// precomputed int64 nanoseconds, so Observe is a short linear scan
// plus three atomic adds — no allocation, no lock.
type Histogram struct {
	boundsSec []float64 // upper bounds, ascending, in seconds
	boundsNs  []int64   // same bounds in nanoseconds
	buckets   []atomic.Uint64
	overflow  atomic.Uint64 // observations above the last bound
	sumNs     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.sumNs.Add(ns)
	for i, b := range h.boundsNs {
		if ns <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.overflow.Add(1)
}

// Count returns the number of observations: the sum of the buckets,
// so Observe pays no separate counter.
func (h *Histogram) Count() uint64 {
	n := h.overflow.Load()
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// DefDurationBuckets covers the repo's latency range: sub-microsecond
// rendezvous up to multi-second exposure windows.
func DefDurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5,
	}
}

type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance within a family.
type series struct {
	labels []Label
	key    string

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64 // counterFunc / gaugeFunc callback
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	order  []*series
	byKey  map[string]*series
	bounds []float64 // histogram families only
}

// Registry holds registered metrics and renders them in Prometheus
// text exposition format.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// register returns the series for name+labels, creating family and
// series as needed. Panics on a kind mismatch with a previous
// registration — that is a programming error, as in Prometheus
// MustRegister.
func (r *Registry) register(name, help string, k kind, labels []Label, bounds []float64) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series), bounds: bounds}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, k.promType(), f.kind.promType()))
	}
	key := labelKey(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			b := f.bounds
			if len(b) == 0 {
				b = DefDurationBuckets()
			}
			h := &Histogram{
				boundsSec: append([]float64(nil), b...),
				boundsNs:  make([]int64, len(b)),
				buckets:   make([]atomic.Uint64, len(b)),
			}
			for i, sec := range h.boundsSec {
				h.boundsNs[i] = int64(sec * float64(time.Second))
			}
			s.h = h
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, nil).c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, nil).g
}

// Histogram registers (or finds) a duration histogram with the given
// upper bounds in seconds (DefDurationBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, bounds).h
}

// CounterFunc registers a counter sampled via fn at exposition time.
// Re-registering the same name+labels replaces the callback, so
// successive component instances (e.g. fleets) hand off cleanly.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounterFunc, labels, nil)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sampled via fn at exposition time.
// Latest registration wins, as with CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGaugeFunc, labels, nil)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// writeLabels renders {a="b",c="d"} including the given extra label
// (used for histogram le); writes nothing for zero labels.
func writeLabels(w io.Writer, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	io.WriteString(w, "{")
	for i, l := range labels {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, `%s=%q`, l.Name, escapeLabelValue(l.Value))
	}
	if extraName != "" {
		if len(labels) > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, `%s=%q`, extraName, extraValue)
	}
	io.WriteString(w, "}")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range f.order {
			switch f.kind {
			case kindCounter:
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(s.c.Value(), 10))
				b.WriteByte('\n')
			case kindGauge:
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(s.g.Value(), 10))
				b.WriteByte('\n')
			case kindCounterFunc, kindGaugeFunc:
				var v float64
				if s.fn != nil {
					v = s.fn()
				}
				b.WriteString(f.name)
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(v))
				b.WriteByte('\n')
			case kindHistogram:
				h := s.h
				var cum uint64
				for i, bound := range h.boundsSec {
					cum += h.buckets[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, "le", formatFloat(bound))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				cum += h.overflow.Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(h.Sum().Seconds()))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
