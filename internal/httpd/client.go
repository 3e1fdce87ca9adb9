package httpd

import (
	"errors"
	"fmt"
	"strings"

	"nvariant/internal/simnet"
)

// ErrConnClosed is returned by Client when the server closed the
// connection without responding — what an attacker observes when the
// monitor kills a compromised variant group mid-request.
var ErrConnClosed = errors.New("httpd: connection closed without response")

// Client issues HTTP requests against a simnet port, standing in for
// the remote (possibly malicious) user of Figure 1.
type Client struct {
	net  *simnet.Network
	port uint16
}

// NewClient builds a client for the given network and port.
func NewClient(net *simnet.Network, port uint16) *Client {
	return &Client{net: net, port: port}
}

// Get requests uri and returns the status code and body.
func (c *Client) Get(uri string) (int, []byte, error) {
	raw, err := c.Raw([]byte(fmt.Sprintf("GET %s HTTP/1.0\r\n\r\n", uri)))
	if err != nil {
		return 0, nil, err
	}
	code, err := ParseStatus(raw)
	if err != nil {
		return 0, nil, err
	}
	return code, Body(raw), nil
}

// AppendRequest appends the GET request payload for uri to dst and
// returns the extended slice — the allocation-free form load
// generators use with prebuilt per-URI request buffers.
func AppendRequest(dst []byte, uri string) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, uri...)
	dst = append(dst, " HTTP/1.0\r\n\r\n"...)
	return dst
}

// Fetch sends a prebuilt request payload (see AppendRequest) and
// returns the status code and body length, recycling the pooled
// response buffer back to the network. It is the zero-allocation
// client path: benchmarks that drive a server through Fetch measure
// the server, not client-side request/response garbage. Callers that
// need the body bytes use Get or Raw instead.
func (c *Client) Fetch(req []byte) (code, bodyLen int, err error) {
	conn, err := c.net.Dial(c.port)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(req); err != nil {
		return 0, 0, err
	}
	resp, err := conn.Recv()
	if err != nil {
		return 0, 0, err
	}
	if resp == nil {
		return 0, 0, ErrConnClosed
	}
	code, perr := ParseStatus(resp)
	bodyLen = len(Body(resp))
	simnet.PutBuffer(resp)
	if perr != nil {
		return 0, 0, perr
	}
	return code, bodyLen, nil
}

// Raw sends an arbitrary request payload and returns the raw response
// bytes — the attacker's interface.
func (c *Client) Raw(payload []byte) ([]byte, error) {
	conn, err := c.net.Dial(c.port)
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(payload); err != nil {
		return nil, err
	}
	resp, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, ErrConnClosed
	}
	return resp, nil
}

// ContainsSecret reports whether a response body leaked the root-only
// document (used by attack experiments to score success).
func ContainsSecret(body []byte) bool {
	return strings.Contains(string(body), "TOP-SECRET")
}
