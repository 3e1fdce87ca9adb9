// Package httpd is the case-study web server (§4): a small Apache-like
// static file server written against the simulated syscall API so it
// can run as an N-variant process group.
//
// Like Apache, it reads its User/Group from a configuration file,
// resolves them through /etc/passwd and /etc/group (diversified via
// unshared files under the UID variation), starts as root, and serves
// requests under the unprivileged worker identity, re-escalating
// between requests. It carries a planted non-control-data
// vulnerability in the style of Chen et al. [12]: the request receive
// uses a capacity larger than the parse buffer, so an over-long
// request overflows into the adjacent worker-UID variable. Corrupting
// that UID to root makes the next request run with EUID 0 — unless the
// UID variation detects the corrupted value at its first use.
//
// The Transformed option selects the source-to-source transformed
// program of §3.3: UID constants arrive pre-reexpressed (Consts), and
// UID uses are exposed to the monitor with the Table 2 detection calls
// (one uid_value per request, §4).
package httpd

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"nvariant/internal/libc"
	"nvariant/internal/reexpress"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

const (
	// ReqBufSize is the parse buffer size.
	ReqBufSize = 256
	// RecvCap is the (vulnerably oversized) capacity passed to recv.
	RecvCap = 1280
	// guardSize keeps overflows up to RecvCap inside mapped memory so
	// the interesting corruption target is the UID word, not a crash.
	guardSize = RecvCap
	// respHeadroom is the space the response region keeps in front of
	// the body for the header, which is rendered once the body length
	// is known. The longest header the server can emit is 134 bytes
	// (TestHeaderFitsHeadroom).
	respHeadroom = 256
)

// Consts holds the program's trusted UID constants. For variant i they
// are produced at build time by applying R_i — this is the "transform
// constant data" half of normal equivalence (§2.2 property 1).
type Consts struct {
	// Root is R_i(0), the representation of the root UID.
	Root vos.UID
}

// Options configures the server program (identical across variants).
type Options struct {
	// ConfigPath locates the configuration file.
	ConfigPath string
	// Transformed enables the §3.3 UID transformation: detection
	// syscalls at UID uses. Variants of configuration 2 and 4 set it.
	Transformed bool
	// NoDetectionCalls is the §5 ablation: keep the transformed
	// constants but skip the per-request uid_value call, relying on
	// the existing syscall-boundary monitoring (detection then happens
	// at the next natural UID syscall, with less precision).
	NoDetectionCalls bool
	// LogUIDs reintroduces the §4 pitfall: error-log lines include the
	// numeric UID, which diverges between variants. The paper's fix
	// (the default) omits the UID from log output.
	LogUIDs bool
	// WorkFactor adds synthetic per-request CPU work (checksum passes
	// over the response body), standing in for request processing that
	// makes the saturated workload compute-bound as on the paper's
	// testbed.
	WorkFactor int
	// Workers is the prefork worker-lane count: after startup the
	// server preforks Workers copies of the request loop over the
	// shared listener, like prefork Apache — the paper's actual
	// testbed server — so the group serves Workers connections
	// concurrently. 0 or 1 is the serial server.
	Workers int
	// ServiceTime simulates per-request blocking service work (backing
	// store reads, upstream calls): each request handler blocks this
	// long, occupying only its own worker lane. It is the request-cost
	// component prefork lanes overlap even on one CPU, where
	// WorkFactor models the component they cannot beyond GOMAXPROCS.
	ServiceTime time.Duration
	// Metrics is the optional server metric set (see NewMetrics). The
	// pointer is shared by all variants of a group; only variant 0
	// records, so series count requests once, not N times.
	Metrics *Metrics
}

// DefaultOptions returns the stock server options.
func DefaultOptions() Options {
	return Options{ConfigPath: DefaultConfigPath}
}

// Server is the httpd program. Create per-variant instances with New
// or BuildVariants. A Server value runs one group at a time: its boot
// block carries startup state to the variant's worker lanes.
type Server struct {
	opts   Options
	consts Consts

	// boot is the startup state worker lanes inherit — the analogue of
	// the memory image a prefork worker receives from fork(). It is
	// written by the primary lane before Prefork and read by worker
	// lanes after; the Prefork rendezvous orders the two.
	boot struct {
		cfg   ServerConfig
		logFD int
		lfd   int
		uid   vos.UID
	}
}

var _ sys.Program = (*Server)(nil)
var _ sys.WorkerProgram = (*Server)(nil)

// New builds a server program with the given constants. For an
// untransformed server (variant 0 or single-variant configurations)
// use Consts{Root: 0}.
func New(opts Options, consts Consts) *Server {
	if opts.ConfigPath == "" {
		opts.ConfigPath = DefaultConfigPath
	}
	return &Server{opts: opts, consts: consts}
}

// BuildVariants constructs one server program per reexpression
// function, applying R_i to the program's UID constants — the trusted
// build-time data transformation of §3.3. Transformed is forced on:
// running diversified UID data through an untransformed program would
// violate normal equivalence.
func BuildVariants(opts Options, funcs []reexpress.Func) ([]sys.Program, error) {
	progs := make([]sys.Program, len(funcs))
	for i, f := range funcs {
		root, err := f.Apply(vos.Root)
		if err != nil {
			return nil, fmt.Errorf("build variant %d: reexpress root: %w", i, err)
		}
		o := opts
		o.Transformed = true
		progs[i] = New(o, Consts{Root: root})
	}
	return progs, nil
}

// BuildFromSpec builds one transformed server per variant of a
// DiversitySpec, applying each variant's UID function to the
// program's constants.
func BuildFromSpec(opts Options, spec *reexpress.Spec) ([]sys.Program, error) {
	return BuildVariants(opts, spec.UIDFuncs())
}

// Name implements sys.Program.
func (s *Server) Name() string { return "httpd" }

// Run implements sys.Program.
func (s *Server) Run(ctx *sys.Context) error {
	if err := s.serve(ctx); err != nil {
		return err
	}
	return ctx.Exit(0)
}

// state is the per-run server state.
type state struct {
	ctx      *sys.Context
	cfg      ServerConfig
	logFD    int
	reqBuf   vmem.Addr
	uidAddr  vmem.Addr // adjacent to reqBuf: the overflow target
	workSink word.Word
	// parse is the reusable copy-out buffer for the request line, so
	// the steady-state request loop reads variant memory without
	// allocating.
	parse [ReqBufSize]byte
	// bodyAddr is the response body in variant memory: bodyCap bytes
	// with respHeadroom bytes for the header in front. Documents are
	// read straight into the body, and the header is written just in
	// front of it, so a response is sent from where it was read.
	bodyAddr vmem.Addr
	bodyCap  uint32
	// hdr and body are reusable Go buffers: hdr renders the header,
	// and body holds the body bytes copied out of variant memory
	// (copyBody).
	hdr  []byte
	body []byte
	// reqStart is the service-time clock, stamped at request receipt
	// when metrics are active on variant 0.
	reqStart time.Time
}

func (s *Server) serve(ctx *sys.Context) error {
	st := &state{ctx: ctx}

	// --- Startup (as root): configuration and identity resolution ---
	cfgFD, err := ctx.Open(s.opts.ConfigPath, vos.ReadOnly, 0)
	if err != nil {
		return fmt.Errorf("httpd: open config: %w", err)
	}
	cfgData, err := ctx.ReadAll(cfgFD)
	if err != nil {
		return fmt.Errorf("httpd: read config: %w", err)
	}
	if err := ctx.Close(cfgFD); err != nil {
		return err
	}
	st.cfg, err = ParseConfig(cfgData)
	if err != nil {
		return fmt.Errorf("httpd: %w", err)
	}

	st.logFD, err = ctx.Open(st.cfg.ErrorLog, vos.WriteOnly|vos.Create|vos.Append, 0644)
	if err != nil {
		return fmt.Errorf("httpd: open error log: %w", err)
	}

	pw, found, err := libc.Getpwnam(ctx, st.cfg.User)
	if err != nil {
		return err
	}
	// Transformed: if (pw == NULL) becomes cond_chk(pw == NULL) —
	// getpwnam's result is UID-derived data influencing control flow.
	missing := !found
	if s.opts.Transformed {
		missing, err = ctx.CondChk(missing)
		if err != nil {
			return err
		}
	}
	if missing {
		if err := st.logf("error: User %q not found in /etc/passwd", st.cfg.User); err != nil {
			return err
		}
		return ctx.Exit(1)
	}

	// Apache's "will not serve as root" configuration check. In the
	// transformed program the comparison goes through cc_eq against
	// the reexpressed root constant (§3.5); the untransformed program
	// compares against the literal 0.
	isRoot := pw.UID == s.consts.Root
	if s.opts.Transformed {
		isRoot, err = ctx.CCEq(pw.UID, s.consts.Root)
		if err != nil {
			return err
		}
	}
	if isRoot {
		if err := st.logf("error: User directive must not name the superuser"); err != nil {
			return err
		}
		return ctx.Exit(1)
	}

	gr, gfound, err := libc.Getgrnam(ctx, st.cfg.Group)
	if err != nil {
		return err
	}
	gmissing := !gfound
	if s.opts.Transformed {
		gmissing, err = ctx.CondChk(gmissing)
		if err != nil {
			return err
		}
	}
	if gmissing {
		if err := st.logf("error: Group %q not found in /etc/group", st.cfg.Group); err != nil {
			return err
		}
		return ctx.Exit(1)
	}

	// --- The vulnerable data layout -----------------------------------
	if err := s.mapRequestState(st, pw.UID); err != nil {
		return err
	}

	if err := ctx.Setegid(gr.GID); err != nil {
		return err
	}

	lfd, err := ctx.Listen(st.cfg.ListenPort)
	if err != nil {
		return fmt.Errorf("httpd: listen: %w", err)
	}
	if err := st.logf("httpd started on port %d, serving as %q", st.cfg.ListenPort, st.cfg.User); err != nil {
		return err
	}

	// --- Prefork -------------------------------------------------------
	// Publish the startup state for the worker lanes, then fork them;
	// the primary lane continues as worker 0 over the same listener.
	s.boot.cfg = st.cfg
	s.boot.logFD = st.logFD
	s.boot.lfd = lfd
	s.boot.uid = pw.UID
	if w := s.opts.Workers; w > 1 {
		if _, err := ctx.Prefork(w); err != nil {
			return err
		}
	}

	return s.requestLoop(st, lfd)
}

// RunWorker implements sys.WorkerProgram: one prefork worker lane's
// request loop, with its own copy of the vulnerable data layout and
// its own parse and response state in a fresh per-lane address space.
func (s *Server) RunWorker(ctx *sys.Context, worker int) error {
	st := &state{ctx: ctx, cfg: s.boot.cfg, logFD: s.boot.logFD}
	if err := s.mapRequestState(st, s.boot.uid); err != nil {
		return err
	}
	return s.requestLoop(st, s.boot.lfd)
}

// mapRequestState lays out the per-worker request-handling memory: the
// request parse buffer sits directly below the worker-UID variable,
// and the guard region keeps oversized payloads mapped so corruption,
// not a crash, is the attack outcome. The response region follows the
// guard, out of the overflow's reach. Every worker lane carries its
// own copy of the layout — an overflow corrupts the lane it lands on.
func (s *Server) mapRequestState(st *state, uid vos.UID) error {
	ctx := st.ctx
	var err error
	st.reqBuf, err = ctx.Mem.Alloc(ReqBufSize)
	if err != nil {
		return err
	}
	st.uidAddr, err = ctx.Mem.Alloc(word.Size)
	if err != nil {
		return err
	}
	if _, err := ctx.Mem.Alloc(guardSize); err != nil {
		return err
	}
	region, err := ctx.Mem.Alloc(respHeadroom + sys.ReadSize)
	if err != nil {
		return err
	}
	st.bodyAddr, st.bodyCap = region+respHeadroom, sys.ReadSize
	return ctx.Mem.WriteWord(st.uidAddr, uid)
}

// requestLoop accepts and serves connections until the listener
// closes — the only way a server stops, as when the paper's launcher
// kills the group. Concurrent worker lanes run this loop over the
// shared listener fd.
func (s *Server) requestLoop(st *state, lfd int) error {
	conns := 0
	for {
		cfd, err := st.ctx.Accept(lfd)
		if err != nil {
			break // listener closed: orderly shutdown
		}
		served, err := s.handleConn(st, cfd)
		if err != nil {
			return err
		}
		if served {
			conns++
		}
	}
	return st.logf("httpd shutting down after %d connections", conns)
}

// handleConn serves one connection (one request, HTTP/1.0 style).
// served reports whether a request was actually received (empty
// connections, e.g. liveness probes, are not counted).
func (s *Server) handleConn(st *state, cfd int) (served bool, err error) {
	ctx := st.ctx
	defer func() { _ = ctx.Close(cfd) }()

	// VULNERABILITY: RecvCap exceeds ReqBufSize, so the kernel's copy
	// of the client's bytes can run past the parse buffer into the
	// adjacent worker-UID word — the same unchecked-copy shape as the
	// non-control-data attacks of Chen et al. [12].
	n, err := ctx.RecvMem(cfd, st.reqBuf, RecvCap)
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, nil // client closed without a request
	}
	if s.opts.Metrics != nil && ctx.Variant == 0 {
		st.reqStart = time.Now()
	}

	parseLen := n
	if parseLen > ReqBufSize {
		parseLen = ReqBufSize
	}
	raw := st.parse[:parseLen]
	if err := ctx.Mem.ReadBytesInto(st.reqBuf, raw); err != nil {
		return true, err
	}
	req, err := ParseRequestLine(raw)
	if err != nil {
		return true, s.respondError(st, cfd, 400)
	}
	if req.Method != "GET" {
		return true, s.respondError(st, cfd, 405)
	}
	if strings.Contains(req.URI, "..") {
		return true, s.respondError(st, cfd, 403)
	}

	// Become the worker user for filesystem access. The UID is loaded
	// from the (possibly corrupted) memory word; the transformed
	// program exposes it to the monitor first — the paper's one
	// detection syscall per request (§4).
	uid, err := ctx.Mem.ReadWord(st.uidAddr)
	if err != nil {
		return true, err
	}
	if s.opts.Transformed && !s.opts.NoDetectionCalls {
		uid, err = ctx.UIDValue(uid)
		if err != nil {
			return true, err
		}
	}
	if err := ctx.Seteuid(uid); err != nil {
		return true, err
	}

	code, n, err := s.loadDocument(st, req.URI)
	if err != nil {
		return true, err
	}

	// Re-escalate for the next request (ruid stayed 0).
	if err := ctx.Seteuid(s.consts.Root); err != nil {
		return true, err
	}

	if err := s.burnWork(st, n); err != nil {
		return true, err
	}
	if s.opts.ServiceTime > 0 {
		// Simulated blocking service work, performed redundantly by
		// every variant (like burnWork): the variants of this lane
		// block in parallel, so the lane is occupied for ServiceTime
		// while sibling lanes keep serving.
		time.Sleep(s.opts.ServiceTime)
	}

	return true, s.respond(st, cfd, code, ContentTypeFor(req.URI), n)
}

// record counts one served response. Variant 0 only — each request is
// served redundantly by all N variants, and double counting would
// scale every httpd series by the group width.
func (s *Server) record(st *state, code int) {
	if m := s.opts.Metrics; m != nil && st.ctx.Variant == 0 {
		m.observe(code, time.Since(st.reqStart))
	}
}

// loadDocument maps the URI to a file and reads it under the current
// (worker) credentials into the response body, translating errnos to
// HTTP statuses (the body is then the error page). It returns the
// status and the body length; an error is a fault in the program's own
// memory.
func (s *Server) loadDocument(st *state, uri string) (int, uint32, error) {
	ctx := st.ctx
	if strings.HasSuffix(uri, "/") {
		uri += "index.html"
	}
	path := st.cfg.DocumentRoot + uri
	fd, err := ctx.Open(path, vos.ReadOnly, 0)
	if err != nil {
		code := 500
		if e, ok := vos.AsErrno(err); ok {
			switch e {
			case vos.ErrNoEnt:
				code = 404
			case vos.ErrAccess, vos.ErrPerm:
				code = 403
			case vos.ErrIsDir:
				code = 403
			}
		}
		s.logDenied(st, uri, code)
		n, err := st.setBody(ErrorBody(code))
		return code, n, err
	}
	n, err := st.readBody(fd)
	_ = ctx.Close(fd)
	if err != nil {
		n, err := st.setBody(ErrorBody(500))
		return 500, n, err
	}
	return 200, n, nil
}

// readBody reads fd to end of file straight into the response body.
// Each read asks for ReadSize bytes or the room left, whichever is
// less, and a full region doubles before the next read, so a document
// costs ceil(size/ReadSize)+1 reads at every size.
func (st *state) readBody(fd int) (uint32, error) {
	var n uint32
	for {
		if n == st.bodyCap {
			if err := st.growBody(n); err != nil {
				return 0, err
			}
		}
		got, err := st.ctx.ReadMem(fd, st.bodyAddr+vmem.Addr(n), min(sys.ReadSize, st.bodyCap-n))
		if err != nil {
			return 0, err
		}
		if got == 0 {
			return n, nil
		}
		n += got
	}
}

// growBody moves the response region to a fresh one of twice the body
// capacity, carrying the n body bytes read so far. The old region stays
// mapped and unused: the simulated address space has no free.
func (st *state) growBody(n uint32) error {
	capacity := 2 * st.bodyCap
	if capacity <= st.bodyCap {
		return fmt.Errorf("httpd: response body exceeds %d bytes", st.bodyCap)
	}
	region, err := st.ctx.Mem.Alloc(respHeadroom + capacity)
	if err != nil {
		return err
	}
	if err := st.copyBody(n); err != nil {
		return err
	}
	st.bodyAddr, st.bodyCap = region+respHeadroom, capacity
	_, err = st.setBody(st.body)
	return err
}

// copyBody copies the first n body bytes out of variant memory into
// st.body.
func (st *state) copyBody(n uint32) error {
	st.body = slices.Grow(st.body[:0], int(n))[:n]
	return st.ctx.Mem.ReadBytesInto(st.bodyAddr, st.body)
}

// setBody writes b as the response body and returns its length.
func (st *state) setBody(b []byte) (uint32, error) {
	return uint32(len(b)), st.ctx.Mem.WriteBytes(st.bodyAddr, b)
}

// respond sends the n-byte body in the response region, with its
// header written directly in front of it: one send over both, straight
// from variant memory. A client that hung up first (EPIPE) is not an
// error: the connection is over and the server keeps serving.
func (s *Server) respond(st *state, cfd, code int, contentType string, n uint32) error {
	st.hdr = appendHeader(st.hdr[:0], code, contentType, int(n))
	h := uint32(len(st.hdr))
	start := st.bodyAddr - vmem.Addr(h)
	if err := st.ctx.Mem.WriteBytes(start, st.hdr); err != nil {
		return err
	}
	err := st.ctx.SendMem(cfd, start, h+n)
	switch {
	case err == nil:
		s.record(st, code)
	case errors.Is(err, vos.ErrPipe):
		// The client hung up before its response: that ends this
		// connection, not the server.
		return nil
	}
	return err
}

// logDenied writes the §4 error-log line. With LogUIDs set it includes
// the effective UID value — the divergence pitfall the paper hit; the
// default follows the paper's fix and omits it.
func (s *Server) logDenied(st *state, uri string, code int) {
	if code != 403 {
		return
	}
	if s.opts.LogUIDs {
		uid, err := st.ctx.Mem.ReadWord(st.uidAddr)
		if err == nil {
			// Deliberately divergent under the UID variation.
			_ = st.logf("access denied for %s (uid=%s)", uri, uid.Decimal())
			return
		}
	}
	_ = st.logf("access denied for %s", uri)
}

// respondError sends an error response without touching credentials.
func (s *Server) respondError(st *state, cfd int, code int) error {
	n, err := st.setBody(ErrorBody(code))
	if err != nil {
		return err
	}
	return s.respond(st, cfd, code, "text/html", n)
}

// burnWork performs WorkFactor checksum passes over the n-byte body:
// the synthetic stand-in for per-request processing, executed
// redundantly by every variant (the paper's duplicated computation).
// Only then is the body copied out of variant memory.
func (s *Server) burnWork(st *state, n uint32) error {
	if s.opts.WorkFactor <= 0 {
		return nil
	}
	if err := st.copyBody(n); err != nil {
		return err
	}
	sum := st.workSink
	for k := 0; k < s.opts.WorkFactor; k++ {
		for _, b := range st.body {
			sum = sum*31 + word.Word(b)
		}
	}
	st.workSink = sum // keep the loop live
	return nil
}

// logf appends one line to the error log.
func (st *state) logf(format string, args ...any) error {
	line := fmt.Sprintf(format, args...) + "\n"
	return st.ctx.WriteString(st.logFD, line)
}

// SetupWorldAt installs the configuration file with a Listen directive
// for the given port, so independent server groups (e.g. members of a
// fleet) can share one network without colliding.
func SetupWorldAt(w *vos.World, port uint16) error {
	root := vos.CredFor(vos.Root, 0)
	if err := w.FS.WriteFile(DefaultConfigPath, ConfigFileForPort(port), 0644, root); err != nil {
		return fmt.Errorf("install httpd.conf: %w", err)
	}
	return nil
}
