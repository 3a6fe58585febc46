package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"her/internal/server"
)

// sink is the response writer a client reuses across requests, so the
// generator's own allocations stay out of the numbers.
type sink struct {
	h    http.Header
	code int
	body []byte
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.code = c }
func (s *sink) Write(p []byte) (int, error) {
	s.body = append(s.body, p...)
	return len(p), nil
}

// client is one load-generating goroutine's private state: a request
// per URL (the mux writes to the request it serves, so clients cannot
// share them) and the reused sink.
type client struct {
	srv  *server.Server
	reqs []*http.Request
	w    sink
	lat  []time.Duration
	fail int
	id   int
	ops  int     // requests sent
	tr   *tracer // traced runs only
	// every is every how many requests one leaves a latency sample and,
	// traced, its spans (0 or 1: all of them).
	every int
}

func vpairURL(k key, view string) string {
	if view != "" {
		return fmt.Sprintf("/vpair?view=%s&rel=%s&tuple=%d", view, k.rel, k.id)
	}
	return fmt.Sprintf("/vpair?rel=%s&tuple=%d", k.rel, k.id)
}

// newClients builds n clients over the same URL list.
func newClients(srv *server.Server, urls []string, n int, tr *tracer) []*client {
	out := make([]*client, n)
	for c := range out {
		cl := &client{srv: srv, tr: tr, id: c, w: sink{h: make(http.Header)}, lat: make([]time.Duration, 0, 1<<16)}
		for _, u := range urls {
			cl.reqs = append(cl.reqs, httptest.NewRequest("GET", u, nil))
		}
		out[c] = cl
	}
	return out
}

// serve issues request i and reports whether it answered 200 with a
// body. The response stays in c.w until the next call.
func (c *client) serve(i int) bool {
	clear(c.w.h)
	c.w.code, c.w.body = http.StatusOK, c.w.body[:0]
	c.srv.ServeHTTP(&c.w, c.reqs[i])
	return c.w.code == http.StatusOK && len(c.w.body) > 0
}

// timed issues request i, timing it from start (the send time in a
// closed loop, the due time in an open one) and recording the spans of
// a traced run under operation id op.
func (c *client) timed(i, op int, start time.Time) time.Duration {
	c.ops++
	tr, keep := c.tr, true
	if c.every > 1 && c.ops%c.every != 0 {
		tr, keep = nil, false
	}
	root := tr.begin(op, 0, "loadgen.request", start)
	sent := start
	if tr != nil {
		sent = time.Now()
		tr.end(tr.begin(op, root, "loadgen.wait", start), sent)
	}
	call := tr.begin(op, root, "server.ServeHTTP", sent)
	ok := c.serve(i)
	done := time.Now()
	tr.end(call, done)
	tr.end(root, done)
	if !ok {
		c.fail++
	}
	d := done.Sub(start)
	if keep {
		c.lat = append(c.lat, d)
	}
	return d
}

// closedLoop runs every client in a closed loop until the deadline or
// until next reports the stream exhausted: each client sends its next
// request only when the previous one has completed. It returns the wall
// time of the phase.
func closedLoop(clients []*client, deadline time.Time, next func(c int) (int, bool)) time.Duration {
	var wg sync.WaitGroup
	var ops atomic.Int64
	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				i, ok := next(cl.id)
				if !ok {
					return
				}
				cl.timed(i, int(ops.Add(1)), now)
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(start)
}

// openStats is what the open-loop generator reports about itself.
type openStats struct {
	sent       int
	sloMisses  int
	late       []time.Duration // send time − due time, per request
	backlogMax int             // most requests due and not yet sent
}

// openLoop sends on a fixed-interval schedule at rate requests per
// second until the deadline or until next reports the stream exhausted.
// A request's latency runs from its due time, so the wait a stall
// imposes on later requests counts against them. The clients only carry
// the requests: when all are busy a due request waits, and that wait is
// in its latency and in backlogMax.
func openLoop(clients []*client, rate float64, slo time.Duration, deadline time.Time, next func() (int, bool)) openStats {
	var (
		mu     sync.Mutex
		st     openStats
		slot   int
		wg     sync.WaitGroup
		start  = time.Now()
		period = time.Duration(float64(time.Second) / rate)
	)
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				mu.Lock()
				n := slot
				due := start.Add(time.Duration(n) * period)
				i, ok := 0, due.Before(deadline)
				if ok {
					i, ok = next()
				}
				if ok {
					slot++
				}
				mu.Unlock()
				if !ok {
					return
				}
				time.Sleep(time.Until(due))
				sendAt := time.Now()
				fails := cl.fail
				d := cl.timed(i, n+1, due)
				mu.Lock()
				st.sent++
				st.late = append(st.late, sendAt.Sub(due))
				if backlog := int(sendAt.Sub(start)/period) - n; backlog > st.backlogMax {
					st.backlogMax = backlog
				}
				if d > slo || cl.fail != fails {
					st.sloMisses++
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return st
}

// vpairBody is the /vpair response.
type vpairBody struct {
	Matches []struct {
		Vertex int32 `json:"vertex"`
	} `json:"matches"`
}

// matchesOf decodes the vertices of the response left in the sink.
func (c *client) matchesOf() ([]int32, error) {
	var b vpairBody
	if err := json.Unmarshal(c.w.body, &b); err != nil {
		return nil, fmt.Errorf("decoding /vpair response: %w", err)
	}
	out := make([]int32, len(b.Matches))
	for i, m := range b.Matches {
		out[i] = m.Vertex
	}
	return out, nil
}
