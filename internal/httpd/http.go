package httpd

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unsafe"
)

// Request is a parsed HTTP request line.
type Request struct {
	// Method is the HTTP method (only GET is served).
	Method string
	// URI is the request path.
	URI string
	// Version is the HTTP version token.
	Version string
}

// ParseRequestLine parses the first line of an HTTP request from the
// (bounded) buffer contents. It is strict about shape so malformed —
// including overflowing — requests get a 400. An accepted parse
// allocates nothing: the returned fields alias buf, so they are valid
// only until buf is next written. The server is done with a Request
// before its next receive reuses the parse buffer; a caller that keeps
// one longer must copy its fields (strings.Clone).
func ParseRequestLine(buf []byte) (Request, error) {
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return Request{}, fmt.Errorf("httpd: request line missing terminator")
	}
	line := bytes.TrimRight(buf[:nl], "\r")
	text := unsafe.String(unsafe.SliceData(line), len(line))
	// Control bytes have no place in a request line; accepting them
	// would let tokens like a bare CR pose as a method (fuzz-found).
	for i := 0; i < len(text); i++ {
		if text[i] < 0x20 || text[i] == 0x7F {
			return Request{}, fmt.Errorf("httpd: control byte in request line %q", text)
		}
	}
	// Exactly three space-separated tokens.
	method, rest, ok1 := strings.Cut(text, " ")
	uri, version, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || strings.IndexByte(version, ' ') >= 0 ||
		method == "" || !strings.HasPrefix(uri, "/") {
		return Request{}, fmt.Errorf("httpd: malformed request line %q", text)
	}
	if !strings.HasPrefix(version, "HTTP/") {
		return Request{}, fmt.Errorf("httpd: bad version %q", version)
	}
	return Request{Method: method, URI: uri, Version: version}, nil
}

// Status texts for the codes the server emits.
var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	403: "Forbidden",
	404: "Not Found",
	405: "Method Not Allowed",
	500: "Internal Server Error",
}

// ContentTypeFor guesses a Content-Type from the URI suffix.
func ContentTypeFor(uri string) string {
	switch {
	case strings.HasSuffix(uri, ".html"), strings.HasSuffix(uri, "/"):
		return "text/html"
	case strings.HasSuffix(uri, ".css"):
		return "text/css"
	case strings.HasSuffix(uri, ".gif"):
		return "image/gif"
	default:
		return "application/octet-stream"
	}
}

// AppendResponse appends a complete HTTP response — header, then
// body — to dst and returns the extended slice. It is the byte-exact
// reference for what the server sends, which renders the same header
// in front of a body already in variant memory.
func AppendResponse(dst []byte, code int, contentType string, body []byte) []byte {
	return append(appendHeader(dst, code, contentType, len(body)), body...)
}

// appendHeader appends the status line and headers of a response with
// an n-byte body, through the blank line that ends them.
func appendHeader(dst []byte, code int, contentType string, n int) []byte {
	text, ok := statusText[code]
	if !ok {
		text = "Unknown"
	}
	dst = append(dst, "HTTP/1.0 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, text...)
	dst = append(dst, "\r\nServer: nvariant-httpd/1.0\r\nContent-Type: "...)
	dst = append(dst, contentType...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, "\r\n\r\n"...)
	return dst
}

// ErrorBody renders a small HTML error page.
func ErrorBody(code int) []byte {
	return []byte(fmt.Sprintf("<html><body><h1>%d %s</h1></body></html>\n", code, statusText[code]))
}

// ParseStatus extracts the status code from a raw HTTP response. It
// works on the raw bytes without conversions or scanning helpers —
// clients parse every response, so this is data-plane code.
func ParseStatus(raw []byte) (int, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return 0, fmt.Errorf("httpd: response missing status line")
	}
	line := bytes.TrimRight(raw[:nl], "\r")
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return 0, fmt.Errorf("httpd: malformed status line %q", line)
	}
	rest := line[sp+1:]
	if end := bytes.IndexByte(rest, ' '); end >= 0 {
		rest = rest[:end]
	}
	// Status codes are exactly three digits; bounding the length also
	// keeps the accumulator from overflowing on a hostile response.
	if len(rest) == 0 || len(rest) > 3 {
		return 0, fmt.Errorf("httpd: bad status %q", rest)
	}
	code := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("httpd: bad status %q", rest)
		}
		code = code*10 + int(c-'0')
	}
	return code, nil
}

// Body extracts the response body (bytes after the blank line).
func Body(raw []byte) []byte {
	if i := bytes.Index(raw, []byte("\r\n\r\n")); i >= 0 {
		return raw[i+4:]
	}
	return nil
}
