package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"her"
	"her/internal/obs"
)

// This file addresses requests at the hosted graph views
// (her/viewapi.go). The matching endpoints accept a view= query
// parameter naming the view to query; her.System.View resolves it ("" is
// the default view, "direct"; an unknown name is 404) and the handlers
// never ask which view they got. Two endpoints are view-specific:
//
//	GET /views                 — list hosted views (name, rules, |V|, |E|, generation)
//	GET /extract?view=<name>   — the view's materialized graph as TSV
//
// Every view — direct like any other, installed before or after the
// server was built — is served by its own shard.Engine over the view's
// ShardConfig, anchored to the view's generation counter and delta log
// (Server.engine).

// view resolves the request's view= parameter to a handle; the empty
// value names the direct view. The her_view_requests_total counter
// attributes the request to the resolved view.
func (s *Server) view(x *exchange, q *query) (*her.ViewHandle, error) {
	vh, err := s.sys.View(q.view)
	if err != nil {
		return nil, err
	}
	ep, name := x.ep, vh.Name()
	ep.views.lookup(name, func() *obs.Counter {
		return s.reg.Counter(fmt.Sprintf(`her_view_requests_total{view=%q,op=%q}`, name, ep.op))
	}).Inc()
	return vh, nil
}

// extractReq is the extract cache's key: everything that determines the
// response bytes. The view name can never be elided — two views at the
// same generation are different graphs — and the handler compares the
// whole value, so a field added here is compared too.
type extractReq struct {
	view string
	gen  uint64
}

// extractCache memoizes the most recent TSV rendering per server: one
// entry, keyed by (view, generation), is enough to absorb polling on a
// quiet system while any mutation or view switch naturally invalidates.
type extractCache struct {
	mu   sync.Mutex
	key  extractReq
	ok   bool
	data []byte
}

// handleViews lists the hosted views.
func (s *Server) handleViews(x *exchange, _ *http.Request) {
	names := s.sys.ViewNames()
	infos := make([]her.ViewInfo, 0, len(names))
	for _, name := range names {
		vh, err := s.sys.View(name)
		if err != nil {
			continue // racing a concurrent removal is benign: skip
		}
		infos = append(infos, vh.Info())
	}
	x.writeJSON(http.StatusOK, map[string]interface{}{
		"count": len(infos),
		"views": infos,
	})
}

// handleExtract serves a view's materialized graph as TSV, memoized per
// (view, generation) so repeated polls of an unchanged view render once.
func (s *Server) handleExtract(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	vh, err := s.view(x, &q)
	if err != nil {
		x.writeErr(http.StatusNotFound, err)
		return
	}
	k := extractReq{view: vh.Name(), gen: vh.Generation()}
	s.extract.mu.Lock()
	if s.extract.ok && s.extract.key == k {
		data := s.extract.data
		s.extract.mu.Unlock()
		writeTSV(x, data)
		return
	}
	s.extract.mu.Unlock()
	var buf bytes.Buffer
	if err := vh.WriteTSV(&buf); err != nil {
		x.writeErr(http.StatusInternalServerError, err)
		return
	}
	data := buf.Bytes()
	s.extract.mu.Lock()
	s.extract.key, s.extract.data, s.extract.ok = k, data, true
	s.extract.mu.Unlock()
	writeTSV(x, data)
}

func writeTSV(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	_, _ = w.Write(data)
}

// viewStats assembles the per-view /stats section.
func (s *Server) viewStats() []map[string]interface{} {
	names := s.sys.ViewNames()
	out := make([]map[string]interface{}, 0, len(names))
	for _, name := range names {
		vh, err := s.sys.View(name)
		if err != nil {
			continue
		}
		info := vh.Info()
		entry := map[string]interface{}{
			"name":       info.Name,
			"rules":      info.Rules,
			"vertices":   info.Vertices,
			"edges":      info.Edges,
			"tuples":     info.Tuples,
			"generation": info.Generation,
		}
		out = append(out, entry)
	}
	return out
}
