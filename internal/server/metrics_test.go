package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"her"
)

// instrumentedSystem is trainedSystem with a metrics registry attached,
// so HTTP, shard and core metrics share one exposition.
func instrumentedSystem(t *testing.T) (*her.System, her.VertexID) {
	t.Helper()
	sys, p1, _ := trainedSystemWithOpts(t, her.Options{Seed: 2, Metrics: her.NewMetrics()})
	return sys, p1
}

func getRaw(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	sys, p1 := instrumentedSystem(t)
	srv := newServer(t, sys)

	// Generate traffic across statuses.
	get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p1)) // 200
	get(t, srv, "/vpair?rel=product&tuple=0")                  // 200
	get(t, srv, "/spair?rel=product&tuple=zzz&vertex=0")       // 400
	get(t, srv, "/spair?rel=ghost&tuple=0&vertex=0")           // 404
	get(t, srv, "/apair")                                      // 200

	code, body := getRaw(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE her_http_requests_total counter",
		`her_http_requests_total{op="/spair",code="200"} 1`,
		`her_http_requests_total{op="/spair",code="400"} 1`,
		`her_http_requests_total{op="/spair",code="404"} 1`,
		`her_http_requests_total{op="/vpair",code="200"} 1`,
		"# TYPE her_http_request_seconds histogram",
		`her_http_request_seconds_bucket{op="/vpair",code="200",le="+Inf"} 1`,
		`her_http_request_seconds_count{op="/vpair",code="200"} 1`,
		// Sub-millisecond resolution: the finest TimeBuckets bound shows.
		`her_http_request_seconds_bucket{op="/vpair",code="200",le="1e-06"}`,
		"# TYPE her_core_paramatch_seconds histogram",
		"# TYPE her_core_candgen_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The server asks only shard engines, so every core observation here
	// was recorded by a shard worker's matcher: served traffic reaches
	// the candgen-vs-match split through the shared registry.
	reg := sys.Metrics()
	if reg.Counter("her_core_paramatch_calls_total").Value() == 0 ||
		reg.Histogram("her_core_paramatch_seconds", nil).Count() == 0 ||
		reg.Histogram("her_core_candgen_seconds", nil).Count() == 0 {
		t.Error("engine-served requests recorded no her_core_* observations")
	}
}

func TestMetricsWithoutSystemRegistry(t *testing.T) {
	// A system built without Options.Metrics still gets HTTP metrics
	// from the server's private registry.
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	get(t, srv, "/healthz")
	code, body := getRaw(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(body, `her_http_requests_total{op="/healthz",code="200"} 1`) {
		t.Errorf("missing healthz sample:\n%s", body)
	}
	// No core metrics: the matcher has no registry.
	if strings.Contains(body, "her_core_paramatch_calls_total") {
		t.Error("core metrics leaked into a server-private registry")
	}
}

func TestMiddlewareBoundsEndpointCardinality(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	getRaw(t, srv, "/totally/unknown/path-1")
	getRaw(t, srv, "/totally/unknown/path-2")
	_, body := getRaw(t, srv, "/metrics")
	if !strings.Contains(body, `her_http_requests_total{op="other",code="404"} 2`) {
		t.Errorf("unknown paths not folded into \"other\":\n%s", body)
	}
	if strings.Contains(body, "path-1") {
		t.Error("raw unknown path leaked into a metric label")
	}
}

func TestServerErrorPaths(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	cases := []struct {
		url  string
		want int
	}{
		{"/vpair?rel=ghost&tuple=0", http.StatusNotFound},       // bad rel
		{"/vpair?rel=product&tuple=abc", http.StatusBadRequest}, // non-numeric tuple
		{"/vpair?tuple=0", http.StatusBadRequest},               // missing rel
		{"/explain?rel=product&tuple=nope&vertex=0", http.StatusBadRequest},
		{"/feedback", http.StatusMethodNotAllowed}, // GET on a POST endpoint
	}
	for _, c := range cases {
		if code, _ := get(t, srv, c.url); code != c.want {
			t.Errorf("GET %s = %d, want %d", c.url, code, c.want)
		}
	}
	// Malformed feedback body.
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad feedback body = %d", rec.Code)
	}
	// Unknown tuple in feedback.
	req = httptest.NewRequest(http.MethodPost, "/feedback",
		strings.NewReader(`[{"rel":"ghost","tuple":9,"vertex":0,"match":true}]`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown feedback tuple = %d", rec.Code)
	}
}
