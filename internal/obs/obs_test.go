package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help", L("k", "v"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := reg.Gauge("g", "help")
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "help", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	want := 500*time.Microsecond + 2*5*time.Millisecond + time.Second
	if got := h.Sum(); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", L("call", "read"))
	b := reg.Counter("x_total", "help", L("call", "read"))
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	other := reg.Counter("x_total", "help", L("call", "write"))
	if a == other {
		t.Error("distinct labels must return distinct series")
	}
}

func TestRegistrationKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Error("registering m as a gauge after a counter must panic")
		}
	}()
	reg.Gauge("m", "help")
}

func TestFuncReRegistrationReplacesCallback(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("live", "help", func() float64 { return 1 })
	reg.GaugeFunc("live", "help", func() float64 { return 2 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "live 2") {
		t.Errorf("latest callback must win:\n%s", sb.String())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "second family").Add(3)
	reg.Counter("a_total", "first family", L("k", "v")).Inc()
	h := reg.Histogram("h_seconds", "latency", []float64{0.001, 0.1})
	h.Observe(10 * time.Millisecond)
	reg.GaugeFunc("fn", "sampled", func() float64 { return 1.5 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Families render sorted by name.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("families must be sorted by name")
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		`a_total{k="v"} 1`,
		"b_total 3",
		"# TYPE h_seconds histogram",
		`h_seconds_bucket{le="0.001"} 0`,
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_sum 0.01",
		"h_seconds_count 1",
		"fn 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The exposition must satisfy our own linter.
	if problems := LintPrometheus([]byte(out)); len(problems) > 0 {
		t.Errorf("self-lint: %v", problems)
	}
	if problems := RequireFamilies([]byte(out), []string{"a_total", "h_seconds"}); len(problems) > 0 {
		t.Errorf("require: %v", problems)
	}
	if problems := RequireFamilies([]byte(out), []string{"missing_total"}); len(problems) == 0 {
		t.Error("RequireFamilies must flag an absent family")
	}
}

func TestLintCatchesMalformed(t *testing.T) {
	cases := map[string]string{
		"orphan sample":   "no_type_declared 1\n",
		"bad value":       "# TYPE x counter\nx banana\n",
		"histogram_noinf": "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, payload := range cases {
		if problems := LintPrometheus([]byte(payload)); len(problems) == 0 {
			t.Errorf("%s: lint accepted malformed payload %q", name, payload)
		}
	}
}

// TestConcurrentUpdatesAndScrapes is the -race proof: registration,
// updates and scrapes may interleave freely.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "help", DefDurationBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("ops_total", "help")
			g := reg.Gauge("inflight", "help")
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				g.Add(-1)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			if problems := LintPrometheus([]byte(sb.String())); len(problems) > 0 {
				t.Errorf("mid-flight lint: %v", problems)
				return
			}
		}
	}()
	wg.Wait()
	if got := reg.Counter("ops_total", "help").Value(); got != 2000 {
		t.Errorf("ops_total = %d, want 2000", got)
	}
	if got := h.Count(); got != 2000 {
		t.Errorf("histogram count = %d, want 2000", got)
	}
}

// TestHotPathZeroAlloc proves the primitives the instrumented
// rendezvous and dispatcher touch allocate nothing per operation.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help")
	g := reg.Gauge("g", "help")
	h := reg.Histogram("h_seconds", "help", DefDurationBuckets())
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(42 * time.Microsecond)
		g.Add(-1)
	}); avg != 0 {
		t.Errorf("hot-path primitives allocate %v/op, want 0", avg)
	}
}
