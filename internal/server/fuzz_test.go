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
		fuzzSrv, fuzzErr = NewSharded(sys, 1)
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

// FuzzVPairBody is the differential for the /vpair body: what
// appendVPair writes for up to two matches equals, byte for byte, what
// json.Encoder.Encode writes for the same vpairResponse — for any
// labels, rel string, vertex and tuple ids.
func FuzzVPairBody(f *testing.F) {
	for _, s := range []struct {
		label1, label2, rel string
		v1, v2              int32
		tuple               int
		n                   uint8
	}{
		{"Aurora Trail Runner", "red", "product", 0, 4, 0, 2},
		{"", "", "", -1, 2147483647, -9223372036854775808, 0},
		{"<b>&amp;</b>", "a>b", "r<&>", 3, 5, 7, 2},
		{"line\u2028sep\u2029para", "é ü 中", "rel\u2028", 1, 2, 1, 2},
		{"bad \xff\xfe utf8", "\xc3", "\xed\xa0\x80", 1, 2, 3, 2},
		{"ctl \x00\x01\x1f\x7f", "tab\there\nnl\r", "\x08\x0c", 8, 9, 10, 2},
		{`quote " back \ slash`, `\"`, `"\\`, 11, 12, 13, 1},
	} {
		f.Add(s.label1, s.label2, s.rel, s.v1, s.v2, s.tuple, s.n)
	}
	f.Fuzz(func(t *testing.T, label1, label2, rel string, v1, v2 int32, tuple int, n uint8) {
		matches := []her.Pair{{U: 0, V: her.VertexID(v1)}, {U: 0, V: her.VertexID(v2)}}[:n%3]
		labels := map[her.VertexID]string{her.VertexID(v2): label2, her.VertexID(v1): label1}
		want := vpairResponse{Matches: []matchJSON{}, Rel: rel, Tuple: tuple}
		for _, m := range matches {
			want.Matches = append(want.Matches, matchJSON{Vertex: int32(m.V), Label: labels[m.V]})
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(want); err != nil {
			t.Fatal(err)
		}
		got := appendVPair(nil, rel, tuple, matches, func(v her.VertexID) string { return labels[v] })
		if !bytes.Equal(got, enc.Bytes()) {
			t.Errorf("appended %q\nencoding/json %q", got, enc.Bytes())
		}
	})
}
