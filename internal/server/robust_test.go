package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHandlerPanicAnswered: a handler that panics before writing answers
// 500 with the JSON error body, and the request is recorded like any
// other — her_http_panics_total and the 500 in the request series, an
// errored trace naming the panic, the request log line — where net/http
// alone would drop the connection and record nothing.
func TestHandlerPanicAnswered(t *testing.T) {
	sys, _ := instrumentedSystem(t)
	srv := newServer(t, sys)
	var logged bytes.Buffer
	srv.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	srv.routes["/boom"] = &endpoint{op: "/boom", handle: func(*exchange, *http.Request) { panic("kaboom") }}

	code, id, body := traceGet(t, srv, "/boom")
	if code != http.StatusInternalServerError || body != "{\"error\":\"internal server error\"}\n" {
		t.Fatalf("panicking handler answered %d %q", code, body)
	}
	if tr := fetchTrace(t, srv, id); tr.Error != "panic: kaboom" || tr.Root.Error != "panic: kaboom" {
		t.Errorf("trace of the panicked request = %+v", tr)
	}
	for _, want := range []string{`msg="handler panic"`, "panic=kaboom", "robust_test.go", "op=/boom", "status=500", "request_id=" + id} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("log misses %q:\n%s", want, logged.String())
		}
	}
	_, metrics := getRaw(t, srv, "/metrics")
	for _, want := range []string{
		`her_http_panics_total{op="/boom"} 1`,
		`her_http_requests_total{op="/boom",code="500"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics misses %s", want)
		}
	}
	// The server keeps serving, from the pool the panicked exchange went
	// back to.
	if code, body := getRaw(t, srv, "/healthz"); code != http.StatusOK || body != "{\"status\":\"ok\"}\n" {
		t.Errorf("after the panic /healthz = %d %q", code, body)
	}
}

// TestHandlerPanicAborts: what cannot be answered is re-panicked as
// http.ErrAbortHandler, for net/http to drop the connection — a handler
// that asked for exactly that, and a panic after part of a response was
// sent (a second status line would only corrupt it). Only the second is
// counted as a panic; both requests are recorded.
func TestHandlerPanicAborts(t *testing.T) {
	sys, _ := instrumentedSystem(t)
	srv := newServer(t, sys)
	srv.Logger = slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	srv.routes["/abort"] = &endpoint{op: "/abort", handle: func(*exchange, *http.Request) { panic(http.ErrAbortHandler) }}
	srv.routes["/late"] = &endpoint{op: "/late", handle: func(x *exchange, _ *http.Request) {
		x.WriteHeader(http.StatusAccepted)
		panic("after the header")
	}}
	for _, path := range []string{"/abort", "/late"} {
		rec := httptest.NewRecorder()
		func() {
			defer func() {
				if p := recover(); p != http.ErrAbortHandler {
					t.Errorf("%s: ServeHTTP panicked with %v, want http.ErrAbortHandler", path, p)
				}
			}()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		}()
		if rec.Body.Len() != 0 {
			t.Errorf("%s: body %q written", path, rec.Body)
		}
	}
	_, metrics := getRaw(t, srv, "/metrics")
	for want, present := range map[string]bool{
		`her_http_panics_total{op="/late"} 1`:               true,
		`her_http_panics_total{op="/abort"}`:                false,
		`her_http_requests_total{op="/late",code="202"} 1`:  true,
		`her_http_requests_total{op="/abort",code="200"} 1`: true,
		`her_http_requests_total{op="/late",code="500"}`:    false,
		`her_http_request_seconds_count{op="/late",code="2`: true,
	} {
		if strings.Contains(metrics, want) != present {
			t.Errorf("/metrics has %s: %t, want %t", want, !present, present)
		}
	}
}

// TestFeedbackBodyBound: /feedback reads at most maxFeedbackBytes of
// body. A body of exactly that size is decoded; one byte more is 413
// and applies nothing.
func TestFeedbackBodyBound(t *testing.T) {
	sys, p1, _ := trainedSystem(t)
	srv := newServer(t, sys)
	verdict := `[{"rel":"product","tuple":0,"vertex":` + itoa(p1) + `,"match":false}`
	post := func(size int) (int, string) {
		body := verdict + strings.Repeat(" ", size-len(verdict)-1) + "]"
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	if code, body := post(maxFeedbackBytes + 1); code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(body, "request body too large") {
		t.Errorf("body over the limit = %d %s, want 413", code, body)
	}
	if n := sys.Overrides(); n != 0 {
		t.Errorf("oversized body applied %d overrides", n)
	}
	if code, body := post(maxFeedbackBytes); code != http.StatusOK || body != "{\"applied\":1,\"overrides\":1}\n" {
		t.Errorf("body at the limit = %d %s, want 200", code, body)
	}
}

// TestVPairNoMatchIsEmptyList: the appended body must render no match
// as [], as encoding/json renders the empty slice, never as null.
func TestVPairNoMatchIsEmptyList(t *testing.T) {
	rec := httptest.NewRecorder()
	x := exchanges.New().(*exchange)
	x.ResponseWriter = rec
	(&Server{}).writeVPair(x, "product", 7, nil)
	if got, want := rec.Body.String(), "{\"matches\":[],\"rel\":\"product\",\"tuple\":7}\n"; got != want {
		t.Errorf("no match rendered %q, want %q", got, want)
	}
}

// TestHandlesConcurrentFirstUse: goroutines that miss on the same keys
// at once register each key's handle exactly once, and all of them get
// that one handle.
func TestHandlesConcurrentFirstUse(t *testing.T) {
	var table handles[int, *int]
	var registered [8]atomic.Int32
	got := make([][8]*int, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				for k := range registered {
					got[g][k] = table.lookup(k, func() *int {
						registered[k].Add(1)
						return new(int)
					})
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range registered {
		if n := registered[k].Load(); n != 1 {
			t.Errorf("key %d registered %d times", k, n)
		}
		for g := range got {
			if got[g][k] != got[0][k] {
				t.Errorf("key %d: goroutine %d holds a different handle", k, g)
			}
		}
	}
}

// TestConcurrentRequestsKeepTheirAnswers: requests served at once, from
// pooled exchanges and first-use metric handles, each get the status and
// body the same request gets alone.
func TestConcurrentRequestsKeepTheirAnswers(t *testing.T) {
	srv, _, _ := viewServer(t, 2)
	targets := []string{
		"/vpair?rel=product&tuple=0",
		"/vpair?rel=product&tuple=1&view=mirror",
		"/vpair?rel=product&tuple=99",
		"/vpair?rel=product&tuple=zzz",
		"/spair?rel=product&tuple=1&vertex=3",
		"/apair?view=ghost",
		"/healthz",
		"/nowhere",
	}
	type answer struct {
		code int
		body string
	}
	want := make([]answer, len(targets))
	for i, target := range targets {
		want[i].code, want[i].body = getRaw(t, srv, target)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(targets)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, targets[i], nil))
				if got := (answer{rec.Code, rec.Body.String()}); got != want[i] {
					t.Errorf("%s served concurrently = %v, alone %v", targets[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
