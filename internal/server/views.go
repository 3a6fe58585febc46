package server

import (
	"bytes"
	"net/http"
	"sync"

	"her"
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

// viewInfos is a row per hosted view, direct first: what /views lists
// and /stats embeds.
func (s *Server) viewInfos() []her.ViewInfo {
	names := s.sys.ViewNames()
	infos := make([]her.ViewInfo, 0, len(names))
	for _, name := range names {
		vh, err := s.sys.View(name)
		if err != nil {
			continue // racing a concurrent removal is benign: skip
		}
		infos = append(infos, vh.Info())
	}
	return infos
}

// handleViews lists the hosted views.
func (s *Server) handleViews(x *exchange, _ *http.Request) {
	infos := s.viewInfos()
	x.writeJSON(http.StatusOK, map[string]interface{}{
		"count": len(infos),
		"views": infos,
	})
}

// handleExtract serves a view's materialized graph as TSV, memoized per
// (view, generation) so repeated polls of an unchanged view render once.
func (s *Server) handleExtract(x *exchange, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	vh, err := s.sys.View(q.view)
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
