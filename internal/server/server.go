// Package server exposes a trained HER System over HTTP as JSON
// endpoints — the deployment shape for the paper's real-time VPair use
// case (pay-as-you-go entity resolution) and the interactive feedback
// loop:
//
//	GET  /healthz
//	GET  /spair?rel=item&tuple=0&vertex=12
//	GET  /vpair?rel=item&tuple=0
//	GET  /apair
//	GET  /explain?rel=item&tuple=0&vertex=12
//	POST /feedback     [{"rel":"item","tuple":0,"vertex":12,"match":true}]
//	GET  /stats
//	GET  /metrics      (Prometheus text exposition)
//	GET  /views, /extract, /debug/requests   (views.go, below)
//
// A System hosts views — graphs over D, "direct" (the RDB2RDF mapping)
// the default — and every matching endpoint addresses one of them
// through the view= parameter (views.go). There is one serving path:
// /spair, /vpair and /apair resolve the view's handle and ask its
// internal/shard engine — partitioned G, halo-replicated fragments,
// per-shard workers with bounded queues and, for /vpair and /apair, a
// generation-stamped result cache, at the shard count NewSharded is
// given. The sequential library API (System.SPair/VPair/APair) is the
// oracle the tests compare the served answers against, not a second way
// to serve.
//
// The matching endpoints honor a server-level Deadline plus an optional
// timeout_ms query parameter (the smaller wins) and answer 503 when the
// budget expires before matching finishes; the request then leaves
// nothing behind but a queued task its shard worker skips. When a shard
// queue is full the request is shed with 429 and a Retry-After hint
// rather than queueing unbounded work. Writes are maintained
// incrementally: each engine replays its view's typed delta log against
// its private snapshots (halo-scoped fragment updates, vertex-scoped
// cache invalidation), so a write retires only the cached results it
// can actually affect and the rest keep serving warm.
//
// Every request passes through ServeHTTP, which routes it by exact path,
// records per-endpoint request counts, status codes and latency
// histograms into the system's metrics registry (or a private one when
// the system was built without instrumentation), so /metrics always
// covers the serving path, and answers a handler panic with 500. A
// request does each thing once — one pass over its query string
// (parseQuery), one table lookup per metric handle (handles), one Write
// of the body — because a cached /vpair is a 0.2 µs lookup and what
// surrounds it is the whole cost of serving one (DESIGN.md §14).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"her"
	"her/internal/obs"
	"her/internal/shard"
)

// Server wraps a System with HTTP handlers.
type Server struct {
	sys    *her.System
	shards int // fragments per view engine

	// engs holds one shard engine per hosted view (*her.ViewHandle →
	// *shard.Engine), built when a request first needs it (NewSharded
	// builds them up front). Every matching request reads it, from every
	// client at once, so reads take no lock; engMu serializes the builds
	// with each other and with Close.
	engs   sync.Map
	engMu  sync.Mutex
	closed bool // guarded by engMu

	extract extractCache // memoized GET /extract rendering (views.go)
	// routes is the exact-path table; a path outside it is other's.
	// Filled by NewSharded, read-only afterwards.
	routes map[string]*endpoint
	other  *endpoint
	reg    *obs.Registry
	// Deadline bounds the matching work of one request (0 = unbounded).
	// The timeout_ms query parameter can only tighten it. Expired
	// requests answer 503.
	Deadline time.Duration
	// Recorder is the always-on flight recorder: every request gets an
	// ID and a root span, and the finished trace is retained when it is
	// among the op's slowest or it errored. NewSharded installs one with
	// the default capacities; set nil before serving to disable tracing
	// entirely (requests then pay only nil checks). Serve the retained
	// traces at GET /debug/requests.
	Recorder *obs.FlightRecorder
	// Logger, when set, emits one structured request log line per
	// request (request_id, op, gen, status, duration). Independent of
	// Recorder: either enables root-span tracing.
	Logger *slog.Logger

	reqSeq atomic.Uint64 // request-ID sequence
}

// maxAPairMatches caps the matches /apair returns inline; the full
// count is always reported.
const maxAPairMatches = 1000

// NewSharded builds the handler around a trained system, serving each
// hosted view from an engine of the given number of shards. The engine
// of every view hosted now is built before it returns, so a bad shard
// count fails here and no request pays for a build; a view installed
// later gets its engine at its first request. HTTP metrics land in the
// system's registry when it has one, so core, shard and serving metrics
// share one /metrics page; otherwise a server-private registry still
// captures the HTTP side. Call Close to stop the shard workers.
//
// Read-your-writes semantics: a request that starts after a mutation
// returns never observes pre-mutation results. Each engine keys its
// cache on its view's generation counter and, before reading the
// cache, replays the view's typed delta log against its private
// snapshots — incremental writes (AddTuple, AddGraphVertex,
// AddGraphEdge) update only the fragments whose halo regions contain
// the touched vertices and evict only the cached entries whose key
// vertices fall inside an affected halo; non-incremental changes
// (feedback, retraining, thresholds) poison the log and force a full
// rebuild. Either way no stale entry survives a write it depends on,
// while unaffected entries keep serving without recomputation.
func NewSharded(sys *her.System, shards int) (*Server, error) {
	reg := sys.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{sys: sys, shards: shards, reg: reg, Recorder: obs.NewFlightRecorder(0, 0)}
	s.routes = map[string]*endpoint{
		"/healthz":        {handle: s.handleHealth},
		"/spair":          {handle: s.handleSPair},
		"/vpair":          {handle: s.handleVPair},
		"/apair":          {handle: s.handleAPair},
		"/explain":        {handle: s.handleExplain},
		"/feedback":       {handle: s.handleFeedback},
		"/stats":          {handle: s.handleStats},
		"/metrics":        {handle: s.handleMetrics},
		"/debug/requests": {handle: s.handleDebugRequests},
		"/views":          {handle: s.handleViews},
		"/extract":        {handle: s.handleExtract},
	}
	for path, ep := range s.routes {
		ep.op = path
	}
	s.other = &endpoint{op: "other", handle: func(x *exchange, r *http.Request) { unrouted.ServeHTTP(x, r) }}
	for _, name := range sys.ViewNames() {
		vh, err := sys.View(name)
		if err != nil {
			continue
		}
		if _, err := s.engine(vh); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// engine returns the shard engine serving vh, over the view's
// ShardConfig — its own snapshots, generation anchor and delta log —
// building it when this is the first request for a view installed
// after NewSharded.
func (s *Server) engine(vh *her.ViewHandle) (*shard.Engine, error) {
	if eng, ok := s.engs.Load(vh); ok {
		return eng.(*shard.Engine), nil
	}
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if eng, ok := s.engs.Load(vh); ok {
		return eng.(*shard.Engine), nil
	}
	if s.closed {
		return nil, shard.ErrClosed
	}
	eng, err := shard.NewEngine(vh.ShardConfig(s.shards))
	if err != nil {
		return nil, err
	}
	s.engs.Store(vh, eng)
	return eng, nil
}

// Engine exposes the shard engine of the default view — the one a
// request without view= addresses (nil once the server is closed, when
// no request built it before).
func (s *Server) Engine() *shard.Engine {
	vh, _ := s.sys.View("")
	eng, _ := s.engine(vh)
	return eng
}

// Close stops every view's shard workers; later matching requests fail.
func (s *Server) Close() {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	s.closed = true
	s.engs.Range(func(_, eng any) bool {
		eng.(*shard.Engine).Close()
		return true
	})
}

// Metrics returns the registry the server records HTTP metrics into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// query is a request's parameters: the first value of each of the five
// keys the endpoints read, taken in one pass over the raw query string.
// parseQuery reads the string as net/url's ParseQuery does — pairs split
// on '&', a pair holding ';' or a malformed escape dropped, keys and
// values unescaped, the first surviving value of a key kept — so each
// field equals r.URL.Query().Get of its key (FuzzServeHTTP holds the two
// to that), without the map, the slices and the keys nobody asked for.
type query struct {
	rel, tuple, vertex, view, timeoutMS string
}

func parseQuery(raw string) (q query) {
	var seen [5]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil {
			continue
		}
		var dst *string
		var i int
		switch key {
		case "rel":
			dst, i = &q.rel, 0
		case "tuple":
			dst, i = &q.tuple, 1
		case "vertex":
			dst, i = &q.vertex, 2
		case "view":
			dst, i = &q.view, 3
		case "timeout_ms":
			dst, i = &q.timeoutMS, 4
		default:
			continue
		}
		if seen[i] {
			continue
		}
		if value, err = url.QueryUnescape(value); err != nil {
			continue
		}
		*dst, seen[i] = value, true
	}
	return q
}

// pair reads rel and tuple — and vertex, for the endpoints that take
// one — as the tuple (and vertex) a matching request addresses.
func (q *query) pair(needVertex bool) (rel string, tuple int, vertex her.VertexID, err error) {
	if q.rel == "" {
		return "", 0, 0, fmt.Errorf("missing rel parameter")
	}
	tuple, err = strconv.Atoi(q.tuple)
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad tuple parameter: %v", err)
	}
	if needVertex {
		v, err := strconv.Atoi(q.vertex)
		if err != nil {
			return "", 0, 0, fmt.Errorf("bad vertex parameter: %v", err)
		}
		vertex = her.VertexID(v)
	}
	return q.rel, tuple, vertex, nil
}

// budget derives the request's matching budget from the server Deadline
// and the optional timeout_ms parameter; the smaller wins.
func (s *Server) budget(ctx context.Context, q *query) (context.Context, context.CancelFunc, error) {
	d := s.Deadline
	if q.timeoutMS != "" {
		ms, err := strconv.Atoi(q.timeoutMS)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout_ms parameter %q", q.timeoutMS)
		}
		if qd := time.Duration(ms) * time.Millisecond; d == 0 || qd < d {
			d = qd
		}
	}
	if d <= 0 {
		return ctx, func() {}, nil
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, cancel, nil
}

// handles is a grow-only table of metric handles. The request path reads
// it without a lock and without formatting a series name: a hit is one
// atomic load and one map lookup. A miss — the first request with that
// status, or to that view — registers the series by name and publishes
// a copy of the map with it in.
type handles[K comparable, V any] struct {
	mu sync.Mutex // serializes misses
	m  atomic.Pointer[map[K]V]
}

func (t *handles[K, V]) lookup(k K, register func() V) V {
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[k]; ok {
			return v
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := map[K]V{}
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[k]; ok {
			return v
		}
		for k, v := range *m {
			next[k] = v
		}
	}
	next[k] = register()
	t.m.Store(&next)
	return next[k]
}

// endpoint is a row of the exact-path table: what serves the path, the
// op label its series carry (the path itself, so the label's cardinality
// is the table's; "other" for every path outside it), and the handles of
// the series seen so far.
type endpoint struct {
	op     string
	handle func(*exchange, *http.Request)
	codes  handles[int, codeMetrics] // by status code
}

// codeMetrics are the two per-request series of one (op, code).
type codeMetrics struct {
	requests *obs.Counter
	seconds  *obs.Histogram
}

// record counts a request that began at t0 and was answered with code.
func (s *Server) record(ep *endpoint, code int, t0 time.Time) {
	m := ep.codes.lookup(code, func() codeMetrics {
		return codeMetrics{
			requests: s.reg.Counter(fmt.Sprintf(`her_http_requests_total{op=%q,code="%d"}`, ep.op, code)),
			seconds: s.reg.Histogram(fmt.Sprintf(`her_http_request_seconds{op=%q,code="%d"}`, ep.op, code),
				obs.TimeBuckets),
		}
	})
	m.requests.Inc()
	m.seconds.ObserveSince(t0)
}

// unrouted answers a path that is no endpoint's the way net/http's mux
// answers one that no pattern matches: 301 to the cleaned path where
// that differs ("//vpair", "/a/../vpair"), 404 otherwise ("/vpair/").
var unrouted = http.NewServeMux()

// exchange is what a handler writes its response to, and the state of
// one request inside ServeHTTP: the endpoint it was routed to, the
// status it answered (for the metrics, the span and the log line), and
// what rendering the body needs. Exchanges are pooled; nothing of one
// is used after ServeHTTP returns.
type exchange struct {
	http.ResponseWriter
	ep     *endpoint
	status int
	wrote  bool // a header or body byte has gone to the ResponseWriter
	// A body is encoded into buf and sent with one Write. enc must not
	// write to the connection itself: a json.Encoder keeps the first
	// write error it sees, and one client hanging up would fail every
	// later response rendered by this pooled exchange.
	buf bytes.Buffer
	enc *json.Encoder // into buf
}

var exchanges = sync.Pool{New: func() any {
	x := &exchange{}
	x.enc = json.NewEncoder(&x.buf)
	return x
}}

// maxPooledBody is the largest body buffer an exchange takes back to
// the pool; an /apair or /debug/requests rendering beyond it is garbage
// after its request, not memory every later /vpair pins.
const maxPooledBody = 64 << 10

func (x *exchange) WriteHeader(code int) {
	x.status, x.wrote = code, true
	x.ResponseWriter.WriteHeader(code)
}

func (x *exchange) Write(p []byte) (int, error) {
	x.wrote = true
	return x.ResponseWriter.Write(p)
}

// jsonContentType is the header value every JSON response shares.
var jsonContentType = []string{"application/json"}

func (x *exchange) writeJSON(status int, v interface{}) {
	x.buf.Reset()
	_ = x.enc.Encode(v) // a value that cannot be encoded leaves the body empty
	x.Header()["Content-Type"] = jsonContentType
	x.WriteHeader(status)
	_, _ = x.Write(x.buf.Bytes())
}

type errorResponse struct {
	Error string `json:"error"`
}

func (x *exchange) writeErr(status int, err error) {
	x.writeJSON(status, errorResponse{Error: err.Error()})
}

// writeMatchErr maps matching-path failures onto transport semantics:
// shed load is 429 with a Retry-After hint, an expired budget is 503,
// anything else uses the endpoint's fallback status.
func (x *exchange) writeMatchErr(err error, fallback int) {
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		x.Header().Set("Retry-After", "1")
		x.writeErr(http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		x.writeErr(http.StatusServiceUnavailable, err)
	default:
		x.writeErr(fallback, err)
	}
}

// ServeHTTP implements http.Handler: it routes the request by exact
// path and wraps the handler in the instrumentation. When tracing is on
// (Recorder or Logger set) it assigns the request an ID, installs a root
// span on the request context — every layer below picks it up via
// obs.SpanFrom — and, once the handler returns, records the finished
// trace and emits the structured request log line. With both off, a
// request pays two nil checks beyond the metrics it always paid.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ep := s.routes[r.URL.Path]
	if ep == nil {
		ep = s.other
	}
	x := exchanges.Get().(*exchange)
	x.ResponseWriter, x.ep, x.status, x.wrote = w, ep, http.StatusOK, false

	var sp *obs.Span
	var id string
	var gen uint64
	if s.Recorder != nil || s.Logger != nil {
		gen = s.sys.Generation()
		id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		sp = obs.StartSpan(ep.op)
		sp.SetAttr("gen", strconv.FormatUint(gen, 10))
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithSpan(r.Context(), sp))
	}
	errMsg, abort := s.handle(x, r)
	status := x.status
	if x.buf.Cap() <= maxPooledBody {
		x.ResponseWriter = nil
		exchanges.Put(x)
	}

	s.record(ep, status, t0)

	if sp != nil {
		if errMsg == "" && status >= 400 {
			errMsg = fmt.Sprintf("HTTP %d", status)
		}
		if errMsg != "" {
			sp.SetError(errors.New(errMsg))
		}
		sp.End()
		s.Recorder.Record(id, ep.op, sp, errMsg)
		if s.Logger != nil {
			s.Logger.Info("request",
				"request_id", id,
				"op", ep.op,
				"gen", gen,
				"status", status,
				"duration", time.Since(t0))
		}
	}
	if abort {
		panic(http.ErrAbortHandler)
	}
}

// handle runs the endpoint's handler and makes a panic in it an answer:
// 500 with the JSON error body, her_http_panics_total{op} counted and
// the stack logged, where net/http would drop the connection and leave
// no metric, span or log line behind. It returns the panic as the
// request's error message; ServeHTTP goes on to record the request like
// any other. abort reports what cannot be answered — the handler asked
// for the connection to be dropped (http.ErrAbortHandler), or part of a
// response had already been sent — and ServeHTTP re-panics for net/http
// once the request is recorded.
func (s *Server) handle(x *exchange, r *http.Request) (errMsg string, abort bool) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			abort = true
			return
		}
		errMsg = fmt.Sprintf("panic: %v", p)
		s.reg.Counter(fmt.Sprintf(`her_http_panics_total{op=%q}`, x.ep.op)).Inc()
		logger := s.Logger
		if logger == nil {
			logger = slog.Default()
		}
		logger.Error("handler panic", "op", x.ep.op, "panic", p, "stack", string(debug.Stack()))
		if x.wrote {
			abort = true
			return
		}
		x.writeErr(http.StatusInternalServerError, errors.New("internal server error"))
	}()
	x.ep.handle(x, r)
	return "", false
}

// handleDebugRequests serves the flight recorder: every retained trace,
// or one trace by its request ID (?id=req-000042). 404 when tracing is
// disabled or the ID fell out of retention.
func (s *Server) handleDebugRequests(x *exchange, r *http.Request) {
	if s.Recorder == nil {
		x.writeErr(http.StatusNotFound, fmt.Errorf("tracing disabled"))
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr, ok := s.Recorder.ByID(id)
		if !ok {
			x.writeErr(http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
			return
		}
		x.writeJSON(http.StatusOK, tr)
		return
	}
	traces := s.Recorder.Traces()
	x.writeJSON(http.StatusOK, map[string]interface{}{
		"count":  len(traces),
		"traces": traces,
	})
}

// handleMetrics serves the Prometheus text exposition of every metric
// recorded so far (HTTP, core matcher phases, BSP engine).
func (s *Server) handleMetrics(x *exchange, _ *http.Request) {
	x.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(x)
}

func (s *Server) handleHealth(x *exchange, _ *http.Request) {
	x.writeJSON(http.StatusOK, map[string]string{"status": "ok"})
}

// The responses of the matching endpoints. encoding/json writes a
// struct's fields in declaration order, and the declaration order here
// is the alphabetical one the map[string]interface{} bodies these
// replace were written in — the wire format is pinned byte for byte by
// TestWireFormat.

type spairResponse struct {
	Match  bool         `json:"match"`
	Rel    string       `json:"rel"`
	Tuple  int          `json:"tuple"`
	Vertex her.VertexID `json:"vertex"`
}

// vpairResponse is the /vpair body. writeVPair appends it without
// encoding/json, byte for byte what json.Encoder.Encode writes for it
// (FuzzVPairBody holds the two equal).
type vpairResponse struct {
	Matches []matchJSON `json:"matches"` // never nil: no match is [], not null
	Rel     string      `json:"rel"`
	Tuple   int         `json:"tuple"`
}

type matchJSON struct {
	Vertex int32  `json:"vertex"`
	Label  string `json:"label"`
}

type apairResponse struct {
	Count   int         `json:"count"`
	Matches []pairJSON  `json:"matches"`
	Stats   apairShards `json:"stats"`
}

type pairJSON struct {
	Tuple  string `json:"tuple"`
	Vertex int32  `json:"vertex"`
}

type apairShards struct {
	Generation uint64 `json:"generation"`
	HaloRadius int    `json:"haloRadius"`
	Shards     int    `json:"shards"`
}

type explainResponse struct {
	Lineage       []lineageJSON     `json:"lineage"`
	SchemaMatches map[string]string `json:"schemaMatches"`
	WitnessSize   int               `json:"witnessSize"`
}

type lineageJSON struct {
	U string `json:"u"`
	V string `json:"v"`
}

func (s *Server) handleSPair(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	rel, tuple, vertex, err := q.pair(true)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	vh, err := s.sys.View(q.view)
	if err != nil {
		x.writeErr(http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.budget(r.Context(), &q)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	defer cancel()
	var match bool
	if !x.atTuple(vh, rel, tuple, nil, func(u her.VertexID) (int, error) {
		eng, err := s.engine(vh)
		if err != nil {
			return http.StatusInternalServerError, err
		}
		match, err = eng.SPair(ctx, u, vertex)
		return http.StatusNotFound, err
	}) {
		return
	}
	x.writeJSON(http.StatusOK, spairResponse{Match: match, Rel: rel, Tuple: tuple, Vertex: vertex})
}

// maxServes bounds how many times atTuple resolves and serves one
// request while recompiles keep renumbering the view under it.
const maxServes = 3

// atTuple resolves tuple (rel, tuple) to its vertex u in vh and calls
// serve(u), which answers for u or fails with an error and the status
// writeMatchErr falls back to; atTuple reports whether an answer
// stands, and writes the error response when none does. A rule view's
// recompile renumbers its vertices, so one landing between the
// resolution and the serve makes serve's answer — or its error —
// another vertex's: atTuple then resolves and serves again, up to
// maxServes times, and answers 503 if the view never held still. sp,
// when tracing, times each resolution as a "resolve" span.
func (x *exchange) atTuple(vh *her.ViewHandle, rel string, tuple int, sp *obs.Span,
	serve func(u her.VertexID) (fallback int, err error)) bool {
	for try := 1; ; try++ {
		rsp := sp.Child("resolve")
		u, recompiles, err := vh.Resolve(rel, tuple)
		rsp.End()
		if err != nil {
			x.writeErr(http.StatusNotFound, err)
			return false
		}
		fallback, err := serve(u)
		if vh.Recompiles() == recompiles {
			if err != nil {
				x.writeMatchErr(err, fallback)
				return false
			}
			return true
		}
		if try == maxServes {
			x.writeErr(http.StatusServiceUnavailable,
				fmt.Errorf("view %s recompiled %d times while serving %s/%d; retry", vh.Name(), maxServes, rel, tuple))
			return false
		}
	}
}

func (s *Server) handleVPair(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	rel, tuple, _, err := q.pair(false)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	vh, err := s.sys.View(q.view)
	if err != nil {
		x.writeErr(http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.budget(r.Context(), &q)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	defer cancel()
	sp := obs.SpanFrom(ctx)
	var matches []her.Pair
	if !x.atTuple(vh, rel, tuple, sp, func(u her.VertexID) (int, error) {
		eng, err := s.engine(vh)
		if err != nil {
			return http.StatusInternalServerError, err
		}
		matches, err = eng.VPair(ctx, u)
		return http.StatusNotFound, err
	}) {
		return
	}
	rsp := sp.Child("render")
	s.writeVPair(x, rel, tuple, matches)
	rsp.End()
}

// writeVPair renders a /vpair answer: the vpairResponse body, appended
// into the exchange's buffer rather than encoded by reflection, and sent
// with one Write.
func (s *Server) writeVPair(x *exchange, rel string, tuple int, matches []her.Pair) {
	x.buf.Reset()
	b := appendVPair(x.buf.AvailableBuffer(), rel, tuple, matches, s.sys.GraphLabel)
	x.buf.Write(b)
	x.Header()["Content-Type"] = jsonContentType
	x.WriteHeader(http.StatusOK)
	_, _ = x.Write(x.buf.Bytes())
}

// appendVPair appends the vpairResponse body of a /vpair answer to b,
// labelling each matched vertex with label, and returns the extended
// buffer.
func appendVPair(b []byte, rel string, tuple int, matches []her.Pair, label func(her.VertexID) string) []byte {
	b = append(b, `{"matches":[`...)
	for i, m := range matches {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vertex":`...)
		b = strconv.AppendInt(b, int64(int32(m.V)), 10)
		b = append(b, `,"label":`...)
		b = appendJSONString(b, label(m.V))
		b = append(b, '}')
	}
	b = append(b, `],"rel":`...)
	b = appendJSONString(b, rel)
	b = append(b, `,"tuple":`...)
	b = strconv.AppendInt(b, int64(tuple), 10)
	return append(b, "}\n"...)
}

// appendJSONString appends str as encoding/json writes it. A string
// whose every byte encoding/json writes unchanged — printable ASCII
// other than '"', '\\', and the HTML-escaped '<', '>', '&' — is copied
// between quotes; any other goes through json.Marshal, which escapes
// what needs escaping and replaces invalid UTF-8 as an Encoder does.
func appendJSONString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(str) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

func (s *Server) handleAPair(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	vh, err := s.sys.View(q.view)
	if err != nil {
		x.writeErr(http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.budget(r.Context(), &q)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	defer cancel()
	eng, err := s.engine(vh)
	if err != nil {
		x.writeMatchErr(err, http.StatusInternalServerError)
		return
	}
	matches, err := eng.APair(ctx, vh.SourceVertices())
	if err != nil {
		x.writeMatchErr(err, http.StatusInternalServerError)
		return
	}
	info := eng.Snapshot()
	shown := matches
	if len(shown) > maxAPairMatches {
		shown = shown[:maxAPairMatches]
	}
	out := make([]pairJSON, 0, len(shown))
	buf := make([]byte, 0, 64) // reused per row instead of Sprintf allocating twice
	for _, m := range shown {
		label := ""
		if ref, ok := vh.TupleOf(m.U); ok {
			buf = append(buf[:0], ref.Relation...)
			buf = append(buf, '/')
			buf = strconv.AppendInt(buf, int64(ref.TupleID), 10)
			label = string(buf)
		}
		out = append(out, pairJSON{Tuple: label, Vertex: int32(m.V)})
	}
	x.writeJSON(http.StatusOK, apairResponse{
		Count:   len(matches),
		Matches: out,
		Stats:   apairShards{Generation: info.Generation, HaloRadius: info.HaloRadius, Shards: info.Shards},
	})
}

func (s *Server) handleExplain(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	rel, tuple, vertex, err := q.pair(true)
	if err != nil {
		x.writeErr(http.StatusBadRequest, err)
		return
	}
	vh, err := s.sys.View(q.view)
	if err != nil {
		x.writeErr(http.StatusNotFound, err)
		return
	}
	if !s.sys.GraphValid(vertex) {
		x.writeErr(http.StatusNotFound, fmt.Errorf("unknown vertex %d", vertex))
		return
	}
	var ex *her.Explanation
	if !x.atTuple(vh, rel, tuple, nil, func(u her.VertexID) (int, error) {
		var err error
		ex, err = vh.Explain(u, vertex)
		return http.StatusNotFound, err
	}) {
		return
	}
	var lineage []lineageJSON
	for _, p := range ex.Lineage {
		lineage = append(lineage, lineageJSON{U: vh.GDLabel(p.U), V: s.sys.GraphLabel(p.V)})
	}
	schema := map[string]string{}
	for _, sm := range ex.SchemaMatches {
		schema[sm.Attr] = sm.Rho.LabelString()
	}
	x.writeJSON(http.StatusOK, explainResponse{
		Lineage: lineage, SchemaMatches: schema, WitnessSize: len(ex.Witness),
	})
}

// feedbackItem is one user verdict in a POST /feedback body.
type feedbackItem struct {
	Rel    string `json:"rel"`
	Tuple  int    `json:"tuple"`
	Vertex int32  `json:"vertex"`
	Match  bool   `json:"match"`
}

// maxFeedbackBytes bounds a POST /feedback body; a larger one is 413.
// A verdict is some 60 bytes, so this is a batch of well over ten
// thousand.
const maxFeedbackBytes = 1 << 20

func (s *Server) handleFeedback(x *exchange, r *http.Request) {
	if r.Method != http.MethodPost {
		x.writeErr(http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var items []feedbackItem
	// The reader is given net/http's own writer, not x: on overflow it
	// asks that writer, by type, to close the connection after the reply.
	body := http.MaxBytesReader(x.ResponseWriter, r.Body, maxFeedbackBytes)
	if err := json.NewDecoder(body).Decode(&items); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		x.writeErr(status, fmt.Errorf("bad body: %v", err))
		return
	}
	var fb []her.Feedback
	for _, it := range items {
		u, err := s.sys.TupleVertex(it.Rel, it.Tuple)
		if err != nil {
			x.writeErr(http.StatusNotFound, err)
			return
		}
		if !s.sys.GraphValid(her.VertexID(it.Vertex)) {
			x.writeErr(http.StatusNotFound, fmt.Errorf("unknown vertex %d", it.Vertex))
			return
		}
		fb = append(fb, her.Feedback{
			Pair:    her.Pair{U: u, V: her.VertexID(it.Vertex)},
			IsMatch: it.Match,
		})
	}
	s.sys.Refine(fb)
	x.writeJSON(http.StatusOK, map[string]int{"applied": len(fb), "overrides": s.sys.Overrides()})
}

func (s *Server) handleStats(x *exchange, _ *http.Request) {
	th := s.sys.Thresholds()
	out := map[string]interface{}{
		"thresholds": map[string]interface{}{"sigma": th.Sigma, "delta": th.Delta, "k": th.K},
	}
	if eng := s.Engine(); eng != nil {
		out["shard"] = eng.Snapshot()
	}
	out["views"] = s.viewInfos()
	x.writeJSON(http.StatusOK, out)
}
