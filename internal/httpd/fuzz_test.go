package httpd

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Native fuzz targets for the two data-plane parsers: every byte both
// reaches from the network is attacker-controlled, so neither may
// panic, and every accepted parse must satisfy the invariants the
// server's request loop relies on. Seed corpora live under
// testdata/fuzz; CI runs each target briefly (-fuzztime) in the
// chaos-smoke job.

// referenceParseRequestLine is the string-splitting parser that
// ParseRequestLine replaced, kept as the fuzz oracle: the
// allocation-free parser must accept, reject and report exactly as it
// did.
func referenceParseRequestLine(buf []byte) (Request, error) {
	text := string(buf)
	nl := strings.IndexByte(text, '\n')
	if nl < 0 {
		return Request{}, fmt.Errorf("httpd: request line missing terminator")
	}
	line := strings.TrimRight(text[:nl], "\r")
	// Control bytes have no place in a request line; accepting them
	// would let tokens like a bare CR pose as a method (fuzz-found).
	for i := 0; i < len(line); i++ {
		if line[i] < 0x20 || line[i] == 0x7F {
			return Request{}, fmt.Errorf("httpd: control byte in request line %q", line)
		}
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 {
		return Request{}, fmt.Errorf("httpd: malformed request line %q", line)
	}
	req := Request{Method: parts[0], URI: parts[1], Version: parts[2]}
	if req.Method == "" || !strings.HasPrefix(req.URI, "/") {
		return Request{}, fmt.Errorf("httpd: malformed request line %q", line)
	}
	if !strings.HasPrefix(req.Version, "HTTP/") {
		return Request{}, fmt.Errorf("httpd: bad version %q", req.Version)
	}
	return req, nil
}

func FuzzParseRequestLine(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("GET /index.html HTTP/1.0\r\n\r\n"),
		[]byte("GET / HTTP/1.1\n"),
		[]byte("POST /a b HTTP/1.0\nx"),
		[]byte("BREW /coffee HTCPCP/1.0\r\n"),
		[]byte("GET  /double-space HTTP/1.0\n"),
		[]byte("\r\n"),
		[]byte(""),
		bytes.Repeat([]byte{'A'}, ReqBufSize),
		[]byte("GET /private/secret.html HTTP/1.0\r\nHost: x\r\n\r\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := ParseRequestLine(raw)
		want, wantErr := referenceParseRequestLine(raw)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || req != want {
			t.Fatalf("ParseRequestLine(%q) = %+v, %v; reference %+v, %v", raw, req, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if req.Method == "" {
			t.Fatalf("accepted request with empty method: %q", raw)
		}
		if !strings.HasPrefix(req.URI, "/") {
			t.Fatalf("accepted non-rooted URI %q from %q", req.URI, raw)
		}
		if !strings.HasPrefix(req.Version, "HTTP/") {
			t.Fatalf("accepted version %q from %q", req.Version, raw)
		}
		if strings.ContainsAny(req.Method+req.URI+req.Version, " \r\n") {
			t.Fatalf("parsed tokens retain separators: %+v from %q", req, raw)
		}
	})
}

func FuzzParseStatus(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi"),
		[]byte("HTTP/1.0 404 Not Found\r\n\r\n"),
		[]byte("HTTP/1.0 9999 Too Big\r\n"),
		[]byte("HTTP/1.0  \r\n"),
		[]byte("HTTP/1.0\r\n"),
		[]byte("x"),
		[]byte(""),
		[]byte("HTTP/1.0 20x OK\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		code, err := ParseStatus(raw)
		if err == nil && (code < 0 || code > 999) {
			// The three-digit bound is what keeps a hostile response
			// from overflowing the accumulator.
			t.Fatalf("accepted status %d from %q", code, raw)
		}
		// Body must never panic and always alias the input.
		if body := Body(raw); len(body) > len(raw) {
			t.Fatalf("body longer than input: %d > %d", len(body), len(raw))
		}
	})
}
