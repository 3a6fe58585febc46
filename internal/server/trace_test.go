package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"her"
)

// traceGet issues a GET and returns the status, the X-Request-ID the
// middleware assigned, and the raw body.
func traceGet(t *testing.T, h http.Handler, url string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("X-Request-ID"), rec.Body.String()
}

// fetchTrace pulls one retained trace by request ID via the debug
// endpoint, i.e. the same JSON an operator would see.
func fetchTrace(t *testing.T, h http.Handler, id string) her.Trace {
	t.Helper()
	code, _, body := traceGet(t, h, "/debug/requests?id="+id)
	if code != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s = %d: %s", id, code, body)
	}
	var tr her.Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("bad trace JSON: %v (%s)", err, body)
	}
	return tr
}

func childNames(n her.SpanNode) []string {
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Name)
	}
	return out
}

func findChild(n her.SpanNode, name string) (her.SpanNode, bool) {
	for _, c := range n.Children {
		if c.Name == name {
			return c, true
		}
	}
	return her.SpanNode{}, false
}

// TestTracedShardedVPairSpanTree is the acceptance shape of the PR: a
// traced sharded /vpair must attribute its wall time across the
// resolve/cache/scatter/gather(shard{queue_wait,compute})/merge/render
// child spans, and the direct children must sum to the root within
// tolerance — no large unattributed gap.
func TestTracedShardedVPairSpanTree(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv, err := NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, id, body := traceGet(t, srv, "/vpair?rel=product&tuple=0")
	if code != http.StatusOK {
		t.Fatalf("/vpair = %d: %s", code, body)
	}
	if !strings.HasPrefix(id, "req-") {
		t.Fatalf("X-Request-ID = %q", id)
	}
	tr := fetchTrace(t, srv, id)
	if tr.Op != "/vpair" || tr.Error != "" {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Root.Attrs["gen"] == "" {
		t.Errorf("root span missing gen attr: %v", tr.Root.Attrs)
	}

	for _, want := range []string{"resolve", "cache", "scatter", "gather", "merge", "render"} {
		if _, ok := findChild(tr.Root, want); !ok {
			t.Errorf("root missing %q child; children = %v", want, childNames(tr.Root))
		}
	}
	cache, _ := findChild(tr.Root, "cache")
	if cache.Attrs["cache"] != "miss" {
		t.Errorf("first request cache attr = %q, want miss", cache.Attrs["cache"])
	}
	gather, _ := findChild(tr.Root, "gather")
	shards := 0
	for _, c := range gather.Children {
		if c.Name != "shard" {
			continue
		}
		shards++
		if c.Attrs["shard"] == "" {
			t.Errorf("shard span missing shard attr: %v", c.Attrs)
		}
		for _, phase := range []string{"queue_wait", "compute"} {
			pc, ok := findChild(c, phase)
			if !ok {
				t.Fatalf("shard span missing %q child: %v", phase, childNames(c))
			}
			if pc.Millis < 0 || pc.Millis > c.Millis+0.001 {
				t.Errorf("%s = %.4fms exceeds its shard span %.4fms", phase, pc.Millis, c.Millis)
			}
		}
	}
	if shards != 2 {
		t.Errorf("gather holds %d shard spans, want 2", shards)
	}

	// The direct children must tile the root: their sum may trail the
	// root by parsing/dispatch slack but not by half the request, and
	// can never exceed it (children are measured inside the root).
	var sum float64
	for _, c := range tr.Root.Children {
		sum += c.Millis
	}
	if sum > tr.Root.Millis*1.05+0.05 {
		t.Errorf("children sum %.4fms exceeds root %.4fms", sum, tr.Root.Millis)
	}
	if sum < tr.Root.Millis*0.5 {
		t.Errorf("unattributed gap too large: children sum %.4fms of root %.4fms",
			sum, tr.Root.Millis)
	}

	// A repeat of the same request is a cache hit, visible in its trace.
	_, id2, _ := traceGet(t, srv, "/vpair?rel=product&tuple=0")
	tr2 := fetchTrace(t, srv, id2)
	cache2, ok := findChild(tr2.Root, "cache")
	if !ok || cache2.Attrs["cache"] != "hit" {
		t.Errorf("repeat request not a traced cache hit: %+v", tr2.Root)
	}
}

// TestErroredRequestRetained checks a failing request lands in the
// error ring with its status as the error message.
func TestErroredRequestRetained(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	code, id, _ := traceGet(t, srv, "/vpair?rel=ghost&tuple=0")
	if code != http.StatusNotFound {
		t.Fatalf("ghost rel = %d", code)
	}
	tr := fetchTrace(t, srv, id)
	if tr.Error != "HTTP 404" || tr.Root.Error != "HTTP 404" {
		t.Errorf("errored trace = %+v", tr)
	}
}

// TestDebugRequestsListAndDisabled covers the list form and the
// disabled recorder.
func TestDebugRequestsListAndDisabled(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	traceGet(t, srv, "/healthz")
	code, _, body := traceGet(t, srv, "/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", code)
	}
	var list struct {
		Count  int         `json:"count"`
		Traces []her.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad list JSON: %v", err)
	}
	if list.Count < 1 || len(list.Traces) != list.Count {
		t.Errorf("count = %d, traces = %d", list.Count, len(list.Traces))
	}
	if code, _, _ := traceGet(t, srv, "/debug/requests?id=req-999999"); code != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", code)
	}

	srv.Recorder = nil
	if code, _, _ := traceGet(t, srv, "/debug/requests"); code != http.StatusNotFound {
		t.Errorf("disabled recorder = %d, want 404", code)
	}
	// With recorder and logger both off, requests carry no ID at all.
	_, id, _ := traceGet(t, srv, "/healthz")
	if id != "" {
		t.Errorf("disabled tracing still assigns request IDs: %q", id)
	}
}

// TestRequestLog checks the structured request log line: one slog
// record per request with the documented fields.
func TestRequestLog(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	var buf bytes.Buffer
	srv.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	traceGet(t, srv, "/vpair?rel=product&tuple=0")
	line := buf.String()
	for _, want := range []string{"request_id=req-", "op=/vpair", "gen=", "status=200", "duration="} {
		if !strings.Contains(line, want) {
			t.Errorf("request log missing %q: %s", want, line)
		}
	}
}

// BenchmarkMiddlewareTracing pins the disabled-recorder overhead: with
// Recorder and Logger nil the serving path must not allocate spans or
// read extra clocks. Every timed request is a result-cache hit, so the
// middleware, not the matcher, is what the two modes differ by. Run
// with -bench to compare them.
func BenchmarkMiddlewareTracing(b *testing.B) {
	sys, _, _, err := buildCatalog(her.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"recorder", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := newServer(b, sys)
			if !mode.enabled {
				srv.Recorder = nil
			}
			req := httptest.NewRequest(http.MethodGet, "/vpair?rel=product&tuple=0", nil)
			srv.ServeHTTP(httptest.NewRecorder(), req) // warm the result cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
			}
		})
	}
}
