package server

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from what the server answers now")

// wireCases is every request of the wire-format table, in the order they
// are served (one sharded server hosting direct and mirror; the first
// /vpair and /apair are cache misses, their repeats hits). A case is
// "METHOD target"; the catalog's p1 vertex is 0, p2 is 3.
var wireCases = []string{
	// /vpair: miss, hit, views.
	"GET /vpair?rel=product&tuple=0",
	"GET /vpair?rel=product&tuple=0",
	"GET /vpair?rel=product&tuple=1",
	"GET /vpair?rel=product&tuple=0&view=mirror",
	"GET /vpair?rel=product&tuple=0&view=mirror",
	"GET /vpair?rel=product&tuple=0&view=direct",
	"GET /vpair?view=mirror&tuple=1&rel=product",
	"GET /vpair?rel=product&tuple=0&view=ghost",
	"GET /vpair?rel=product&tuple=0&view=",
	// /vpair: status precedence. 400 for rel, tuple; 404 for the view;
	// 400 for timeout_ms; 404 for the tuple — in that order.
	"GET /vpair",
	"GET /vpair?",
	"GET /vpair?tuple=0",
	"GET /vpair?tuple=zzz",
	"GET /vpair?rel=product",
	"GET /vpair?rel=product&tuple=",
	"GET /vpair?rel=product&tuple=zzz",
	"GET /vpair?rel=product&tuple=1.5",
	"GET /vpair?rel=product&tuple=99999999999999999999",
	"GET /vpair?rel=product&tuple=zzz&view=ghost",
	"GET /vpair?tuple=0&view=ghost",
	"GET /vpair?rel=product&tuple=0&timeout_ms=abc",
	"GET /vpair?rel=product&tuple=0&timeout_ms=0",
	"GET /vpair?rel=product&tuple=0&timeout_ms=-5",
	"GET /vpair?rel=product&tuple=0&timeout_ms=",
	"GET /vpair?rel=product&tuple=0&timeout_ms=60000",
	"GET /vpair?rel=product&tuple=0&view=ghost&timeout_ms=abc",
	"GET /vpair?rel=product&tuple=99&timeout_ms=abc",
	"GET /vpair?rel=product&tuple=99",
	"GET /vpair?rel=product&tuple=-1",
	"GET /vpair?rel=ghost&tuple=0",
	"GET /vpair?rel=product&tuple=99&view=mirror",
	"GET /vpair?rel=product&tuple=0&vertex=junk",
	// /vpair: how the query string is read. First value of a repeated
	// key; escapes in keys and values; a pair with a bad escape or a
	// semicolon is dropped, not an error; empty pairs are skipped.
	"GET /vpair?rel=product&rel=ghost&tuple=0",
	"GET /vpair?rel=ghost&rel=product&tuple=0",
	"GET /vpair?rel=&rel=product&tuple=0",
	"GET /vpair?rel&rel=product&tuple=0",
	"GET /vpair?rel=product&tuple=0&tuple=zzz",
	"GET /vpair?rel=product&tuple=0&view=mirror&view=ghost",
	"GET /vpair?rel=pro%64uct&tuple=0",
	"GET /vpair?rel=product&tuple=%30",
	"GET /vpair?r%65l=product&tuple=0",
	"GET /vpair?rel=product&tuple=0&vi%65w=ghost",
	"GET /vpair?rel=product&tuple=0&%zz=1",
	"GET /vpair?%zz=1&rel=product&tuple=0",
	"GET /vpair?rel=product&tuple=%zz&tuple=0",
	"GET /vpair?rel=%zz&rel=product&tuple=0",
	"GET /vpair?rel=product&tuple=0&view=%zz",
	"GET /vpair?rel=product&tuple=0&view=gh%6fst",
	"GET /vpair?re%zzl=ghost&rel=product&tuple=0",
	"GET /vpair?rel=product;tuple=0",
	"GET /vpair?rel=product&tuple=0;view=ghost",
	"GET /vpair?rel=product&tuple=0&view=ghost;x=1",
	"GET /vpair?rel=product&&tuple=0&",
	"GET /vpair?&=&rel=product&=x&tuple=0",
	"GET /vpair?rel=a+b&tuple=0",
	"GET /vpair?rel=a%20b&tuple=0",
	"GET /vpair?rel=product&tuple=+0",
	"GET /vpair?rel=product&tuple=%2B0",
	"GET /vpair?rel=product=x&tuple=0",
	"GET /vpair?REL=product&tuple=0",
	"GET /vpair?rel=product&tuple=0#frag",
	// The query string is all that is read: not the method, not a body.
	"POST /vpair?rel=product&tuple=0",
	"HEAD /vpair?rel=product&tuple=0",
	"POST /vpair",

	// /spair.
	"GET /spair?rel=product&tuple=0&vertex=0",
	"GET /spair?rel=product&tuple=0&vertex=0",
	"GET /spair?rel=product&tuple=0&vertex=3",
	"GET /spair?rel=product&tuple=0&vertex=0&view=mirror",
	"GET /spair?rel=product&tuple=0&vertex=0&view=ghost",
	"GET /spair?tuple=0&vertex=0",
	"GET /spair?rel=product&tuple=zzz&vertex=0",
	"GET /spair?rel=product&tuple=0",
	"GET /spair?rel=product&tuple=0&vertex=zzz",
	"GET /spair?rel=product&tuple=zzz&vertex=zzz",
	"GET /spair?rel=product&tuple=0&vertex=zzz&view=ghost",
	"GET /spair?rel=product&tuple=0&vertex=0&timeout_ms=abc",
	"GET /spair?rel=product&tuple=0&vertex=0&view=ghost&timeout_ms=abc",
	"GET /spair?rel=product&tuple=99&vertex=0&timeout_ms=abc",
	"GET /spair?rel=product&tuple=99&vertex=0",
	"GET /spair?rel=product&tuple=0&vertex=9999",
	"GET /spair?rel=product&tuple=0&vertex=-1",
	"GET /spair?rel=product&tuple=0&vertex=0&vertex=3",
	"GET /spair?rel=pro%64uct&tuple=0&vertex=%30",
	"GET /spair?rel=product&tuple=0&vertex=%zz&vertex=0",

	// /apair.
	"GET /apair",
	"GET /apair",
	"GET /apair?view=mirror",
	"GET /apair?view=ghost",
	"GET /apair?timeout_ms=abc",
	"GET /apair?view=ghost&timeout_ms=abc",
	"GET /apair?timeout_ms=60000&rel=ignored&workers=2",
	"GET /apair?view=mirror&view=ghost",
	"GET /apair?view=%zz&view=mirror",

	// /explain.
	"GET /explain?rel=product&tuple=0&vertex=0",
	"GET /explain?rel=product&tuple=0&vertex=0&view=mirror",
	"GET /explain?rel=product&tuple=0&vertex=0&view=ghost",
	"GET /explain?tuple=0&vertex=0",
	"GET /explain?rel=product&tuple=zzz&vertex=0",
	"GET /explain?rel=product&tuple=0&vertex=zzz",
	"GET /explain?rel=product&tuple=0&vertex=zzz&view=ghost",
	"GET /explain?rel=product&tuple=0&vertex=3",
	"GET /explain?rel=product&tuple=0&vertex=9999",
	"GET /explain?rel=product&tuple=0&vertex=9999&view=ghost",
	"GET /explain?rel=product&tuple=99&vertex=0",
	"GET /explain?rel=product&tuple=99&vertex=9999",
	"GET /explain?rel=product&tuple=0&vertex=0&timeout_ms=abc",
	"GET /explain?rel=pro%64uct&rel=ghost&tuple=0&vertex=0",

	// /views, /healthz, and what is not an endpoint's exact path.
	"GET /views",
	"GET /views?view=ghost",
	"GET /healthz",
	"GET /healthz?rel=product",
	"POST /healthz",
	"GET /feedback",
	"POST /feedback",
	"GET //vpair",
	"GET //vpair?rel=product&tuple=0",
	"POST //vpair?rel=product&tuple=0",
	"GET /vpair/",
	"GET /vpair/?rel=product&tuple=0",
	"GET /vpair//",
	"GET /a/../vpair?rel=product&tuple=0",
	"GET /./healthz",
	"GET /healthz/.",
	"GET /debug/requests/",
	"GET /debug",
	"GET /VPAIR?rel=product&tuple=0",
	"GET /vpair%2F?rel=product&tuple=0",
	"GET /%76pair?rel=product&tuple=0",
	"GET /nowhere",
	"GET /",
}

// TestWireFormat pins what the read endpoints put on the wire — status,
// Content-Type, Location and the exact body bytes — for hits, misses,
// views, every parameter error in its precedence order, and the ways a
// query string can be repeated, escaped or malformed. testdata/wire.golden
// was recorded before the request path was restructured; a change to the
// serving code may not change a byte of it.
func TestWireFormat(t *testing.T) {
	srv, _, p1 := viewServer(t, 2)
	if p1 != 0 {
		t.Fatalf("catalog vertex p1 = %d, the table addresses it as 0", p1)
	}
	var got strings.Builder
	for _, c := range wireCases {
		method, target, _ := strings.Cut(c, " ")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		fmt.Fprintf(&got, "%s\n\t%d type=%q location=%q\n\t%q\n", c,
			rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Location"), rec.Body.String())
	}
	const path = "testdata/wire.golden"
	if *updateWire {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("wire format differs from %s at line %d (case %q):\n got %s\nwant %s",
				path, i+1, gotLines[i-i%3], gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("wire format: %d lines, %s has %d", len(gotLines), path, len(wantLines))
}

// TestWireFormatPrecedence spells out the rows of the table the issue
// names, so that the golden file cannot be regenerated into agreement
// with a changed precedence unnoticed.
func TestWireFormatPrecedence(t *testing.T) {
	srv, _, _ := viewServer(t, 2)
	for _, c := range []struct {
		target string
		status int
		body   string // substring
	}{
		{"/vpair?rel=product&tuple=0&view=ghost", http.StatusNotFound, `unknown view \"ghost\"`},
		{"/vpair?tuple=0", http.StatusBadRequest, "missing rel parameter"},
		{"/vpair?rel=product&tuple=zzz", http.StatusBadRequest, "bad tuple parameter"},
		{"/vpair?rel=product&tuple=zzz&view=ghost", http.StatusBadRequest, "bad tuple parameter"},
		{"/vpair?rel=product&tuple=0&timeout_ms=abc", http.StatusBadRequest, "bad timeout_ms parameter"},
		{"/vpair?rel=product&tuple=0&view=ghost&timeout_ms=abc", http.StatusNotFound, "unknown view"},
		{"/vpair?rel=product&tuple=99&timeout_ms=abc", http.StatusBadRequest, "bad timeout_ms parameter"},
		{"/vpair?rel=product&tuple=99", http.StatusNotFound, "unknown tuple product/99"},
		{"/vpair?rel=product&rel=ghost&tuple=0", http.StatusOK, `"rel":"product"`},
		{"/vpair?rel=pro%64uct&tuple=0", http.StatusOK, `"rel":"product"`},
		{"/vpair?rel=product&tuple=0&%zz=1", http.StatusOK, `"tuple":0`},
		{"/vpair?rel=product&tuple=%zz&tuple=0", http.StatusOK, `"tuple":0`},
		{"/vpair?rel=product;tuple=0", http.StatusBadRequest, "missing rel parameter"},
		{"//vpair?rel=product&tuple=0", http.StatusMovedPermanently, `href="/vpair?rel=product&amp;tuple=0"`},
		{"/vpair/", http.StatusNotFound, "404 page not found"},
	} {
		if code, body := getRaw(t, srv, c.target); code != c.status || !strings.Contains(body, c.body) {
			t.Errorf("%s = %d %s, want %d with %q", c.target, code, body, c.status, c.body)
		}
	}
}
