package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"her"
)

// fuzzServer lazily builds one trained system per process, shared across
// fuzz iterations (training is far too expensive per input). Handlers
// must tolerate any request sequence, so cross-iteration state (e.g.
// feedback overrides) is part of the surface under test.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

func fuzzServer() (*Server, error) {
	fuzzOnce.Do(func() {
		sys, _, _, err := buildCatalog(her.Options{Seed: 2})
		if err != nil {
			fuzzErr = err
			return
		}
		fuzzSrv = New(sys)
	})
	return fuzzSrv, fuzzErr
}

var fuzzMethods = []string{
	http.MethodGet, http.MethodPost, http.MethodPut,
	http.MethodDelete, http.MethodHead,
}

// FuzzServeHTTP exercises the server's request-decoding surface: any
// method/target/body combination must produce an HTTP response — never a
// handler panic, which ServeHTTP would answer with 500 — and JSON
// responses must actually be JSON. It is also the differential oracle of
// parseQuery: on every target, each of the five parameters must read
// what net/url's r.URL.Query().Get reads.
func FuzzServeHTTP(f *testing.F) {
	f.Add(uint8(0), "/healthz", []byte(""))
	f.Add(uint8(0), "/spair?rel=product&tuple=0&vertex=0", []byte(""))
	f.Add(uint8(0), "/spair?rel=product&tuple=0&vertex=9999", []byte(""))
	f.Add(uint8(0), "/spair?rel=product&tuple=-1&vertex=-1", []byte(""))
	f.Add(uint8(0), "/vpair?rel=product&tuple=0", []byte(""))
	f.Add(uint8(0), "/apair", []byte(""))
	f.Add(uint8(0), "/explain?rel=product&tuple=0&vertex=0", []byte(""))
	f.Add(uint8(1), "/feedback", []byte(`[{"rel":"product","tuple":0,"vertex":0,"match":true}]`))
	f.Add(uint8(1), "/feedback", []byte(`[{"rel":"product","tuple":0,"vertex":-5,"match":true}]`))
	f.Add(uint8(1), "/feedback", []byte(`{"not":"a list"}`))
	f.Add(uint8(0), "/stats", []byte(""))
	f.Add(uint8(0), "/metrics", []byte(""))
	f.Add(uint8(3), "/nowhere?%zz=1", []byte("junk"))
	// The parameter surface: views, budgets, and the ways a query string
	// can repeat, escape, empty or break a pair.
	f.Add(uint8(0), "/vpair?rel=product&tuple=0&view=direct", []byte(""))
	f.Add(uint8(0), "/vpair?rel=product&tuple=0&view=ghost&timeout_ms=abc", []byte(""))
	f.Add(uint8(0), "/apair?view=&timeout_ms=60000", []byte(""))
	f.Add(uint8(0), "/spair?rel=product&tuple=0&vertex=0&timeout_ms=-5", []byte(""))
	f.Add(uint8(0), "/extract?view=direct&view=ghost", []byte(""))
	f.Add(uint8(0), "/vpair?rel=a&rel=b&tuple=0&tuple=zzz", []byte(""))
	f.Add(uint8(0), "/vpair?rel=&rel=product&tuple&tuple=0", []byte(""))
	f.Add(uint8(0), "/vpair?r%65l=pro%64uct&tuple=%30&vi%65w=dir+ect", []byte(""))
	f.Add(uint8(0), "/vpair?rel=%zz&rel=product&tuple=%z&tuple=0&%zz=1&re%l=x", []byte(""))
	f.Add(uint8(0), "/vpair?rel=product;tuple=0&view=direct;x&timeout_ms=1;", []byte(""))
	f.Add(uint8(0), "/vpair?&&=&=x&rel=product=x&&tuple==0&", []byte(""))
	f.Add(uint8(0), "/explain?vertex=+0&tuple=%2B0&rel=a+b%20c#rel=frag", []byte(""))
	f.Fuzz(func(t *testing.T, methodIdx uint8, target string, body []byte) {
		srv, err := fuzzServer()
		if err != nil {
			t.Fatalf("building fuzz system: %v", err)
		}
		if !strings.HasPrefix(target, "/") {
			target = "/" + target
		}
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return // not a parseable request target; nothing to serve
		}
		req := &http.Request{
			Method:     fuzzMethods[int(methodIdx)%len(fuzzMethods)],
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Body:       io.NopCloser(bytes.NewReader(body)),
			Host:       "fuzz.test",
			RemoteAddr: "192.0.2.1:1234",
			RequestURI: target,
		}
		q, want := parseQuery(u.RawQuery), u.Query()
		for key, got := range map[string]string{
			"rel": q.rel, "tuple": q.tuple, "vertex": q.vertex, "view": q.view, "timeout_ms": q.timeoutMS,
		} {
			if got != want.Get(key) {
				t.Fatalf("%s: parseQuery reads %s=%q, url.Values %q", target, key, got, want.Get(key))
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code < 100 || rec.Code > 599 {
			t.Fatalf("%s %s: implausible status %d", req.Method, target, rec.Code)
		}
		if rec.Code == http.StatusInternalServerError && strings.Contains(rec.Body.String(), "internal server error") {
			t.Fatalf("%s %s: handler panicked", req.Method, target)
		}
		ct := rec.Header().Get("Content-Type")
		if strings.Contains(ct, "application/json") && rec.Body.Len() > 0 {
			var v interface{}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s %s: Content-Type json but body is not: %v\n%s",
					req.Method, target, err, rec.Body.Bytes())
			}
		}
	})
}
