package main

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/simnet"
)

// Response check failures. They are static so that a failing request
// allocates no more than a passing one.
var (
	errNoResponse = errors.New("connection closed without a response")
	errStatus     = errors.New("status is not 200")
	errLength     = errors.New("body length differs from the document")
	errBody       = errors.New("body differs from the document")
)

// check verifies one raw HTTP response against the document it asked
// for.
func check(resp []byte, d *doc, full bool) error {
	code, err := httpd.ParseStatus(resp)
	if err != nil {
		return err
	}
	if code != 200 {
		return errStatus
	}
	body := httpd.Body(resp)
	if len(body) != len(d.body) {
		return errLength
	}
	if full && !bytes.Equal(body, d.body) {
		return errBody
	}
	return nil
}

// exchange sends a prebuilt request on conn, checks the response, and
// returns its pooled buffer to simnet.
func exchange(conn *simnet.Conn, d *doc, full bool, tr *tracer) error {
	t0 := tr.now()
	if err := conn.Send(d.req); err != nil {
		return err
	}
	t1 := tr.now()
	tr.add(spanSend, t0, t1)
	resp, err := conn.Recv()
	tr.add(spanRecv, t1, tr.now())
	if err != nil {
		return err
	}
	if resp == nil {
		return errNoResponse
	}
	err = check(resp, d, full)
	simnet.PutBuffer(resp)
	return err
}

// client is one way into the system: it issues request i of the
// workload's sequence and verifies the answer. tr is nil when
// untraced.
type client interface {
	fetch(in *inputs, i int, tr *tracer) error
}

// directClient dials a port: a group, a fleet front port or the echo
// listener. One connection carries one request, as in HTTP/1.0.
type directClient struct {
	net  *simnet.Network
	port uint16
}

func (c *directClient) fetch(in *inputs, i int, tr *tracer) error {
	d := in.docAt(i)
	t0 := tr.now()
	conn, err := c.net.Dial(c.port)
	t1 := tr.now()
	tr.add(spanDial, t0, t1)
	if err != nil {
		return err
	}
	err = exchange(conn, d, in.full, tr)
	t2 := tr.now()
	_ = conn.Close()
	tr.add(spanClose, t2, tr.now())
	return err
}

// meshClient dispatches through mesh sessions, one per session key.
type meshClient struct {
	sessions []*mesh.Session
}

func newMeshClient(m *mesh.Mesh, keys []string) *meshClient {
	c := &meshClient{}
	for _, k := range keys {
		c.sessions = append(c.sessions, m.Session(k))
	}
	return c
}

func (c *meshClient) fetch(in *inputs, i int, tr *tracer) error {
	d := in.docAt(i)
	// The seeded key order picks the session; a client holding fewer
	// sessions than keys wraps around them.
	s := c.sessions[in.keyOrder[i%len(in.keyOrder)]%int32(len(c.sessions))]
	t0 := tr.now()
	code, n, err := s.Fetch(d.req)
	tr.add(spanMeshFetch, t0, tr.now())
	switch {
	case err != nil:
		return err
	case code != 200:
		return errStatus
	case n != len(d.body):
		return errLength
	}
	return nil
}

// engine is one closed-loop client: it sends its next request only
// after the previous one completed. Latencies go into a fixed-size
// histogram, so the loop allocates nothing of its own and the
// generator's memory does not grow with the request rate.
type engine struct {
	hist   latHist
	ok     int
	failed int
	err    error
	next   int
	tr     *tracer
}

func newEngine(start int) *engine {
	return &engine{next: start}
}

// step issues one request and records its outcome.
func (e *engine) step(c client, in *inputs, root spanName) {
	t0 := time.Now()
	err := c.fetch(in, e.next, e.tr)
	t1 := time.Now()
	e.tr.add(root, t0, t1)
	e.tr.endRequest()
	e.next++
	if err != nil {
		e.failed++
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.ok++
	e.hist.add(int64(t1.Sub(t0)))
}

// reset clears the recorded outcomes but keeps the request position.
func (e *engine) reset() {
	e.hist = latHist{}
	e.ok, e.failed, e.err = 0, 0, nil
}

// phase runs the engines closed-loop against c for d and returns the
// measured wall time.
func phase(c client, in *inputs, engines []*engine, d time.Duration) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, e := range engines {
		wg.Add(1)
		go func(e *engine) {
			defer wg.Done()
			for !stop.Load() {
				e.step(c, in, spanRequest)
			}
		}(e)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return time.Since(start)
}

// echoServer answers each request with the canned response of its
// document: simnet transit at zero service cost. It is the baseline
// the httpd layer's self time is measured against.
type echoServer struct {
	ln        *simnet.Listener
	responses map[string][]byte
	wg        sync.WaitGroup
}

func startEcho(net *simnet.Network, port uint16, in *inputs) (*echoServer, error) {
	ln, err := net.Listen(port)
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, responses: make(map[string][]byte)}
	for i := range in.docs {
		e.responses[string(in.docs[i].req)] = in.docs[i].resp
	}
	e.wg.Add(1)
	go e.serve()
	return e, nil
}

func (e *echoServer) serve() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go e.handle(conn)
	}
}

// handle answers requests on one connection until the client closes
// it.
func (e *echoServer) handle(conn *simnet.Conn) {
	defer e.wg.Done()
	defer func() { _ = conn.Close() }()
	for {
		msg, err := conn.Recv()
		if err != nil || msg == nil {
			return
		}
		resp, ok := e.responses[string(msg)]
		simnet.PutBuffer(msg)
		if !ok || conn.Send(resp) != nil {
			return
		}
	}
}

// stop closes the listener and waits for every handler to end.
func (e *echoServer) stop() {
	_ = e.ln.Close()
	e.wg.Wait()
}
