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
// generation-stamped result cache. New serves from one shard per view,
// NewSharded from as many as it is given; nothing else differs. The
// sequential library API (System.SPair/VPair/APair) is the oracle the
// tests compare the served answers against, not a second way to serve.
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
// Every request passes through an instrumentation middleware that
// records per-endpoint request counts, status codes and latency
// histograms into the system's metrics registry (or a private one when
// the system was built without instrumentation), so /metrics always
// covers the serving path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
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
	mux     *http.ServeMux
	reg     *obs.Registry
	// MaxAPairMatches caps the matches returned inline by /apair
	// (default 1000); the full count is always reported.
	MaxAPairMatches int
	// Deadline bounds the matching work of one request (0 = unbounded).
	// The timeout_ms query parameter can only tighten it. Expired
	// requests answer 503.
	Deadline time.Duration
	// Recorder is the always-on flight recorder: every request gets an
	// ID and a root span, and the finished trace is retained when it is
	// among the op's slowest or it errored. New installs one with the
	// default capacities; set nil before serving to disable tracing
	// entirely (requests then pay only nil checks). Serve the retained
	// traces at GET /debug/requests.
	Recorder *obs.FlightRecorder
	// Logger, when set, emits one structured request log line per
	// request (request_id, op, gen, status, duration). Independent of
	// Recorder: either enables root-span tracing.
	Logger *slog.Logger

	reqSeq atomic.Uint64 // request-ID sequence
}

// New builds the handler around a trained system, serving each hosted
// view from a one-shard engine built at the view's first request. HTTP
// metrics land in the system's registry when it has one, so core, shard
// and serving metrics share one /metrics page; otherwise a
// server-private registry still captures the HTTP side. Call Close to
// stop the shard workers.
func New(sys *her.System) *Server {
	reg := sys.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{sys: sys, shards: 1, mux: http.NewServeMux(), reg: reg, MaxAPairMatches: 1000,
		Recorder: obs.NewFlightRecorder(0, 0)}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/spair", s.handleSPair)
	s.mux.HandleFunc("/vpair", s.handleVPair)
	s.mux.HandleFunc("/apair", s.handleAPair)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/feedback", s.handleFeedback)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/views", s.handleViews)
	s.mux.HandleFunc("/extract", s.handleExtract)
	return s
}

// NewSharded is New with the given number of shards per view, and with
// the engine of every view hosted now built before it returns, so a
// bad shard count fails here and no request pays for a build.
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
	s := New(sys)
	s.shards = shards
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
// building it when this is the first request for the view.
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

// reqContext derives the request's matching budget from the server
// Deadline and the optional timeout_ms parameter; the smaller wins.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.Deadline
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout_ms parameter %q", q)
		}
		if qd := time.Duration(ms) * time.Millisecond; d == 0 || qd < d {
			d = qd
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// writeMatchErr maps matching-path failures onto transport semantics:
// shed load is 429 with a Retry-After hint, an expired budget is 503,
// anything else uses the endpoint's fallback status.
func writeMatchErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, fallback, err)
	}
}

// knownEndpoints bounds the cardinality of the op label: paths outside
// this set are recorded as "other".
var knownEndpoints = map[string]bool{
	"/healthz": true, "/spair": true, "/vpair": true, "/apair": true,
	"/explain": true, "/feedback": true, "/stats": true, "/metrics": true,
	"/debug/requests": true, "/views": true, "/extract": true,
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: the instrumentation middleware
// wrapping the mux. When tracing is on (Recorder or Logger set) it
// assigns the request an ID, installs a root span on the request
// context — every layer below picks it up via obs.SpanFrom — and, once
// the handler returns, records the finished trace and emits the
// structured request log line. With both off, a request pays two map
// lookups and two nil checks beyond the metrics it always paid.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	op := r.URL.Path
	if !knownEndpoints[op] {
		op = "other"
	}
	sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

	var sp *obs.Span
	var id string
	gen := s.sys.Generation()
	if s.Recorder != nil || s.Logger != nil {
		id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		sp = obs.StartSpan(op)
		sp.SetAttr("gen", strconv.FormatUint(gen, 10))
		sr.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithSpan(r.Context(), sp))
	}
	s.mux.ServeHTTP(sr, r)

	s.reg.Counter(fmt.Sprintf(`her_http_requests_total{op=%q,code="%d"}`,
		op, sr.status)).Inc()
	s.reg.Histogram(fmt.Sprintf(`her_http_request_seconds{op=%q,code="%d"}`,
		op, sr.status), obs.TimeBuckets).ObserveSince(t0)

	if sp != nil {
		var errMsg string
		if sr.status >= 400 {
			errMsg = fmt.Sprintf("HTTP %d", sr.status)
			sp.SetError(errors.New(errMsg))
		}
		sp.End()
		s.Recorder.Record(id, op, sp, errMsg)
		if s.Logger != nil {
			s.Logger.Info("request",
				"request_id", id,
				"op", op,
				"gen", gen,
				"status", sr.status,
				"duration", time.Since(t0))
		}
	}
}

// handleDebugRequests serves the flight recorder: every retained trace,
// or one trace by its request ID (?id=req-000042). 404 when tracing is
// disabled or the ID fell out of retention.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.Recorder == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("tracing disabled"))
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr, ok := s.Recorder.ByID(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
			return
		}
		writeJSON(w, http.StatusOK, tr)
		return
	}
	traces := s.Recorder.Traces()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":  len(traces),
		"traces": traces,
	})
}

// handleMetrics serves the Prometheus text exposition of every metric
// recorded so far (HTTP, core matcher phases, BSP engine).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// pairParams parses rel/tuple(/vertex) query parameters.
func pairParams(r *http.Request, needVertex bool) (rel string, tuple int, vertex her.VertexID, err error) {
	rel = r.URL.Query().Get("rel")
	if rel == "" {
		return "", 0, 0, fmt.Errorf("missing rel parameter")
	}
	tuple, err = strconv.Atoi(r.URL.Query().Get("tuple"))
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad tuple parameter: %v", err)
	}
	if needVertex {
		v, err := strconv.Atoi(r.URL.Query().Get("vertex"))
		if err != nil {
			return "", 0, 0, fmt.Errorf("bad vertex parameter: %v", err)
		}
		vertex = her.VertexID(v)
	}
	return rel, tuple, vertex, nil
}

//herlint:hot
func (s *Server) handleSPair(w http.ResponseWriter, r *http.Request) {
	rel, tuple, vertex, err := pairParams(r, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/spair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	u, err := vh.TupleVertex(rel, tuple)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	eng, err := s.engine(vh)
	if err != nil {
		writeMatchErr(w, err, http.StatusInternalServerError)
		return
	}
	match, err := eng.SPair(ctx, u, vertex)
	if err != nil {
		writeMatchErr(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"rel": rel, "tuple": tuple, "vertex": vertex, "match": match,
	})
}

type matchJSON struct {
	Vertex int32  `json:"vertex"`
	Label  string `json:"label"`
}

//herlint:hot
func (s *Server) handleVPair(w http.ResponseWriter, r *http.Request) {
	rel, tuple, _, err := pairParams(r, false)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/vpair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	sp := obs.SpanFrom(ctx)
	rsp := sp.Child("resolve")
	u, err := vh.TupleVertex(rel, tuple)
	rsp.End()
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	eng, err := s.engine(vh)
	if err != nil {
		writeMatchErr(w, err, http.StatusInternalServerError)
		return
	}
	matches, err := eng.VPair(ctx, u)
	if err != nil {
		writeMatchErr(w, err, http.StatusNotFound)
		return
	}
	rsp = sp.Child("render")
	out := make([]matchJSON, 0, len(matches))
	for _, m := range matches {
		out = append(out, matchJSON{Vertex: int32(m.V), Label: s.sys.GraphLabel(m.V)})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"rel": rel, "tuple": tuple, "matches": out,
	})
	rsp.End()
}

//herlint:hot
func (s *Server) handleAPair(w http.ResponseWriter, r *http.Request) {
	vh, err := s.viewParam(r, "/apair")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel, err := s.reqContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	eng, err := s.engine(vh)
	if err != nil {
		writeMatchErr(w, err, http.StatusInternalServerError)
		return
	}
	matches, err := eng.APair(ctx, vh.SourceVertices())
	if err != nil {
		writeMatchErr(w, err, http.StatusInternalServerError)
		return
	}
	info := eng.Snapshot()
	shown := matches
	if len(shown) > s.MaxAPairMatches {
		shown = shown[:s.MaxAPairMatches]
	}
	type pairJSON struct {
		Tuple  string `json:"tuple"`
		Vertex int32  `json:"vertex"`
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
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":   len(matches),
		"matches": out,
		"stats": map[string]interface{}{
			"shards":     info.Shards,
			"haloRadius": info.HaloRadius,
			"generation": info.Generation,
		},
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	rel, tuple, vertex, err := pairParams(r, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	vh, err := s.viewParam(r, "/explain")
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !s.sys.GraphValid(vertex) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown vertex %d", vertex))
		return
	}
	u, err := vh.TupleVertex(rel, tuple)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ex, err := vh.Explain(u, vertex)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type lineageJSON struct {
		U string `json:"u"`
		V string `json:"v"`
	}
	var lineage []lineageJSON
	for _, p := range ex.Lineage {
		lineage = append(lineage, lineageJSON{U: vh.GDLabel(p.U), V: s.sys.GraphLabel(p.V)})
	}
	schema := map[string]string{}
	for _, sm := range ex.SchemaMatches {
		schema[sm.Attr] = sm.Rho.LabelString()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"witnessSize":   len(ex.Witness),
		"lineage":       lineage,
		"schemaMatches": schema,
	})
}

// feedbackItem is one user verdict in a POST /feedback body.
type feedbackItem struct {
	Rel    string `json:"rel"`
	Tuple  int    `json:"tuple"`
	Vertex int32  `json:"vertex"`
	Match  bool   `json:"match"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var items []feedbackItem
	if err := json.NewDecoder(r.Body).Decode(&items); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	var fb []her.Feedback
	for _, it := range items {
		u, err := s.sys.TupleVertex(it.Rel, it.Tuple)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		if !s.sys.GraphValid(her.VertexID(it.Vertex)) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown vertex %d", it.Vertex))
			return
		}
		fb = append(fb, her.Feedback{
			Pair:    her.Pair{U: u, V: her.VertexID(it.Vertex)},
			IsMatch: it.Match,
		})
	}
	s.sys.Refine(fb)
	writeJSON(w, http.StatusOK, map[string]int{"applied": len(fb), "overrides": s.sys.Overrides()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.sys.Stats()
	th := s.sys.Thresholds()
	out := map[string]interface{}{
		"thresholds": map[string]interface{}{"sigma": th.Sigma, "delta": th.Delta, "k": th.K},
		"matcher": map[string]int{
			"calls": st.Calls, "cacheHits": st.CacheHits,
			"cleanups": st.Cleanups, "rechecks": st.Rechecks,
		},
	}
	if eng := s.Engine(); eng != nil {
		out["shard"] = eng.Snapshot()
	}
	out["views"] = s.viewStats()
	writeJSON(w, http.StatusOK, out)
}
