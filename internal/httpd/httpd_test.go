package httpd

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// quickCheck runs a property with the default quick configuration.
func quickCheck(f any) error { return quick.Check(f, nil) }

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig(ConfigFileForPort(DefaultPort))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ListenPort != 8080 || cfg.User != "wwwrun" || cfg.Group != "www" {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.DocumentRoot != "/var/www" || cfg.ErrorLog != "/var/log/httpd-error_log" {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		"Listen not-a-port\n",
		"Bogus directive\n",
		"User\n",
		"Listen 8080 extra\n",
	}
	for _, c := range cases {
		if _, err := ParseConfig([]byte(c)); err == nil {
			t.Errorf("ParseConfig(%q) succeeded, want error", c)
		}
	}
}

func TestParseConfigSkipsComments(t *testing.T) {
	cfg, err := ParseConfig([]byte("# comment\n\nListen 9000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ListenPort != 9000 {
		t.Errorf("port = %d", cfg.ListenPort)
	}
}

func TestParseRequestLine(t *testing.T) {
	raw := []byte("GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n")
	req, err := ParseRequestLine(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.URI != "/index.html" || req.Version != "HTTP/1.0" {
		t.Errorf("req = %+v", req)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = ParseRequestLine(raw) }); allocs != 0 {
		t.Errorf("ParseRequestLine: %.0f allocs, want 0", allocs)
	}
}

func TestParseRequestLineErrors(t *testing.T) {
	cases := []string{
		"GET /index.html HTTP/1.0",    // no newline
		"GET /index.html\r\n",         // two fields
		"GET index.html HTTP/1.0\r\n", // relative URI
		" / HTTP/1.0\r\n",             // empty method
		"GET / FTP/1.0\r\n",           // bad version
		strings.Repeat("A", 256),      // overflow filler
	}
	for _, c := range cases {
		if _, err := ParseRequestLine([]byte(c)); err == nil {
			t.Errorf("ParseRequestLine(%q) succeeded, want error", c)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte("<html>hi</html>")
	raw := AppendResponse(nil, 200, "text/html", body)
	code, err := ParseStatus(raw)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 {
		t.Errorf("code = %d", code)
	}
	if got := Body(raw); string(got) != string(body) {
		t.Errorf("body = %q", got)
	}
	if !strings.Contains(string(raw), "Content-Length: 15") {
		t.Errorf("missing content length: %q", raw)
	}
}

func TestParseStatusErrors(t *testing.T) {
	for _, c := range []string{"", "HTTP/1.0\n", "HTTP/1.0 abc OK\r\n"} {
		if _, err := ParseStatus([]byte(c)); err == nil {
			t.Errorf("ParseStatus(%q) succeeded, want error", c)
		}
	}
}

func TestContentTypeFor(t *testing.T) {
	cases := map[string]string{
		"/a.html": "text/html",
		"/":       "text/html",
		"/s.css":  "text/css",
		"/l.gif":  "image/gif",
		"/d.bin":  "application/octet-stream",
		"/no-ext": "application/octet-stream",
	}
	for uri, want := range cases {
		if got := ContentTypeFor(uri); got != want {
			t.Errorf("ContentTypeFor(%q) = %q, want %q", uri, got, want)
		}
	}
}

func TestErrorBodyMentionsCode(t *testing.T) {
	if !strings.Contains(string(ErrorBody(404)), "404 Not Found") {
		t.Error("404 body missing status text")
	}
}

func TestBodyWithoutSeparator(t *testing.T) {
	if Body([]byte("no separator")) != nil {
		t.Error("Body without separator should be nil")
	}
}

func TestContainsSecret(t *testing.T) {
	if !ContainsSecret([]byte("xx TOP-SECRET yy")) {
		t.Error("secret not recognized")
	}
	if ContainsSecret([]byte("public page")) {
		t.Error("false positive")
	}
}

func TestQuickParseRequestLineNeverPanics(t *testing.T) {
	// Robustness property: arbitrary bytes (the attacker's full input
	// space) either parse to a well-formed request or error — never
	// panic, never yield a method/URI that violates the invariants.
	f := func(data []byte) bool {
		req, err := ParseRequestLine(data)
		if err != nil {
			return true
		}
		return req.Method != "" && len(req.URI) > 0 && req.URI[0] == '/'
	}
	if err := quickCheck(f); err != nil {
		t.Error(err)
	}
}

func TestQuickResponseRoundTrip(t *testing.T) {
	codes := []int{200, 400, 403, 404, 405, 500}
	f := func(codeIdx uint8, body []byte) bool {
		code := codes[int(codeIdx)%len(codes)]
		raw := AppendResponse(nil, code, "text/html", body)
		got, err := ParseStatus(raw)
		if err != nil || got != code {
			return false
		}
		b := Body(raw)
		if len(b) != len(body) {
			return false
		}
		for i := range body {
			if b[i] != body[i] {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f); err != nil {
		t.Error(err)
	}
}

// TestHeaderFitsHeadroom: the server renders a response header into
// the respHeadroom bytes in front of the body, so every header it can
// emit (any status, any content type, any body length) must fit.
func TestHeaderFitsHeadroom(t *testing.T) {
	longest := 0
	for code := range statusText {
		for _, ct := range []string{"text/html", ContentTypeFor("/x.css"), ContentTypeFor("/x.gif"), ContentTypeFor("/x")} {
			longest = max(longest, len(appendHeader(nil, code, ct, math.MaxUint32)))
		}
	}
	if longest > respHeadroom {
		t.Errorf("longest header is %d B, headroom %d B", longest, respHeadroom)
	}
}
