package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies what a span timed. Root spans name the entry
// point a request went through; child spans name the public call into
// a layer.
type spanName uint8

const (
	spanRequest spanName = iota // a workload request
	spanEcho
	spanConfig1
	spanConfig2
	spanConfig3
	spanConfig4
	spanFleetDirect
	spanFleetFront
	spanMesh
	spanDial      // simnet.Network.Dial
	spanSend      // simnet.Conn.Send
	spanRecv      // simnet.Conn.Recv: waiting for the response
	spanClose     // simnet.Conn.Close
	spanMeshFetch // mesh.Session.Fetch
	spanNames
)

var spanLabels = [spanNames]string{
	"request", "entry.echo", "entry.config1", "entry.config2", "entry.config3", "entry.config4",
	"entry.fleet_direct", "entry.fleet_front", "entry.mesh",
	"simnet.Dial", "simnet.Send", "simnet.Recv", "simnet.Close", "mesh.Session.Fetch",
}

// span is one timed call. All spans of one request share req; the
// root span (an entry point) is the parent of the others.
type span struct {
	req   uint32
	name  spanName
	start int64 // ns since the tracer's epoch
	dur   int64
}

// tracer records spans into a preallocated array. Once it is full,
// further spans are not recorded, or, when wrap is set, recording
// starts over, which keeps the cost per span the same however long a
// run is. One tracer belongs to one goroutine. A nil tracer records
// nothing and costs one nil check.
type tracer struct {
	epoch time.Time
	spans []span
	req   uint32
	wrap  bool
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) add(name spanName, start, end time.Time) {
	if t == nil {
		return
	}
	if len(t.spans) == cap(t.spans) {
		if !t.wrap {
			return
		}
		t.spans = t.spans[:0]
	}
	t.spans = append(t.spans, span{req: t.req, name: name, start: int64(start.Sub(t.epoch)), dur: int64(end.Sub(start))})
}

func (t *tracer) endRequest() {
	if t != nil {
		t.req++
	}
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name spanName) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// writeSpans writes up to limit spans of each tracer as NDJSON, one
// object per line, with each child naming its root span as parent.
func writeSpans(path string, limit int, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for ti, t := range tracers {
		root := map[uint32]spanName{}
		for _, s := range t.spans {
			if s.name < spanDial {
				root[s.req] = s.name
			}
		}
		for _, s := range t.spans[:min(limit, len(t.spans))] {
			parent := ""
			if s.name >= spanDial {
				parent = spanLabels[root[s.req]]
			}
			fmt.Fprintf(w, `{"tracer":%d,"req":%d,"span":%q,"parent":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
				ti, s.req, spanLabels[s.name], parent, s.start, s.dur)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
