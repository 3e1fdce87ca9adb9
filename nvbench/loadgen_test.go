package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/simnet"
)

// connClient issues every request on one open connection, which the
// echo listener keeps answering, so a request costs only the
// generator's own work plus simnet transit.
type connClient struct{ conn *simnet.Conn }

func (c *connClient) fetch(in *inputs, i int, tr *tracer) error {
	return exchange(c.conn, in.docAt(i), in.full, tr)
}

// TestGeneratorAllocatesNothingPerRequest shows that the load
// generator — prebuilt request, response check, recycled response
// buffer, latency histogram and preallocated span array — allocates nothing per
// request, so alloc_bytes_per_req and allocs_per_req measure the
// system, not the benchmark.
func TestGeneratorAllocatesNothingPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		large  bool
		traced bool
	}{
		{"small", false, false},
		{"large", true, false},
		{"small-traced", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := makeInputs(tc.large, 1)
			if err != nil {
				t.Fatal(err)
			}
			net := simnet.New(0)
			echo, err := startEcho(net, echoPort, in)
			if err != nil {
				t.Fatal(err)
			}
			defer echo.stop()
			conn, err := net.Dial(echoPort)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()

			c := &connClient{conn: conn}
			e := newEngine(0)
			if tc.traced {
				e.tr = newTracer(time.Now(), 1<<14)
			}
			// Fill simnet's buffer pool before counting.
			for i := 0; i < 64; i++ {
				e.step(c, in, spanRequest)
			}
			allocs := testing.AllocsPerRun(1000, func() { e.step(c, in, spanRequest) })
			if allocs != 0 {
				t.Errorf("generator allocates %v objects per request, want 0", allocs)
			}
			if e.failed > 0 || e.ok == 0 {
				t.Fatalf("%d ok, %d failed, first error %v", e.ok, e.failed, e.err)
			}
		})
	}
}

// TestDirectClientAgainstEcho runs the per-request dialing client the
// workloads use against the echo listener.
func TestDirectClientAgainstEcho(t *testing.T) {
	in, err := makeInputs(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(0)
	echo, err := startEcho(net, echoPort, in)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.stop()
	e := newEngine(0)
	for i := 0; i < 100; i++ {
		e.step(&directClient{net: net, port: echoPort}, in, spanRequest)
	}
	if e.ok != 100 || e.hist.n != 100 {
		t.Fatalf("%d ok, %d recorded, first error %v", e.ok, e.hist.n, e.err)
	}
}

// TestCheckRejectsWrongResponses covers the correctness oracle.
func TestCheckRejectsWrongResponses(t *testing.T) {
	in, err := makeInputs(true, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := &in.docs[0]
	flipped := bytes.Clone(d.body)
	flipped[len(flipped)/2] ^= 1
	for _, tc := range []struct {
		name string
		resp []byte
		full bool
		want error
	}{
		{"good", d.resp, true, nil},
		{"status", httpd.AppendResponse(nil, 404, "text/html", d.body), true, errStatus},
		{"length", httpd.AppendResponse(nil, 200, "text/html", d.body[1:]), false, errLength},
		{"body", httpd.AppendResponse(nil, 200, "text/html", flipped), true, errBody},
		{"body-unchecked", httpd.AppendResponse(nil, 200, "text/html", flipped), false, nil},
	} {
		if err := check(tc.resp, d, tc.full); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestInputsFollowTheSeed checks that the seed alone fixes the inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	a, _ := makeInputs(true, 7)
	b, _ := makeInputs(true, 7)
	c, _ := makeInputs(true, 8)
	same := func(x, y *inputs) bool {
		for i := range x.docs {
			if !bytes.Equal(x.docs[i].body, y.docs[i].body) {
				return false
			}
		}
		for i := range x.order {
			if x.order[i] != y.order[i] || x.keyOrder[i] != y.keyOrder[i] {
				return false
			}
		}
		return x.keys[0] == y.keys[0]
	}
	if !same(a, b) {
		t.Error("same seed gave different inputs")
	}
	if same(a, c) {
		t.Error("different seeds gave the same inputs")
	}
	for _, d := range a.docs {
		if len(d.body) < largeMinSize || len(d.body) > largeMaxSize {
			t.Errorf("%s: %d bytes, want %d..%d", d.uri, len(d.body), largeMinSize, largeMaxSize)
		}
	}
}

// TestHistogramPercentiles checks the latency histogram against exact
// percentiles of the same samples.
func TestHistogramPercentiles(t *testing.T) {
	var h latHist
	var xs []int64
	for i := int64(1); i <= 100000; i++ {
		ns := i * i % 9_000_017 // spread over 0..9 ms
		h.add(ns)
		xs = append(xs, ns)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		got, want := h.percentile(p), percentile(xs, p)
		if d := got - want; d > want/100+1 || -d > want/100+1 {
			t.Errorf("p%v = %v, exact %v", p, got, want)
		}
	}
	if histIndex(1<<50) != histBuckets-1 || histIndex(-5) != 0 {
		t.Error("out-of-range durations must land in the edge buckets")
	}
}

// TestQuartilesMatchPython pins the steadiness report to Python's
// statistics.quantiles(xs, n=4): [2.75, 5.5, 8.25] for 1..10.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
