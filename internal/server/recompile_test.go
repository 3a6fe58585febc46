package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"her"
)

// danglingServer serves, from two shards per view, a system hosting a
// direct-shaped "mirror" rule view over a database whose second main
// tuple references the dim key "dim B", which does not exist yet. Adding
// that dim tuple extends the direct view in place but recompiles the
// mirror, which renumbers its vertices: main/0 moves. G replicates both
// main tuples, so the untrained lexical scorers confirm tuple i ↔
// entity i.
func danglingServer(t *testing.T) (*Server, *her.System) {
	t.Helper()
	dim, err := her.NewSchema("dim", []string{"dkey", "country"}, "dkey")
	if err != nil {
		t.Fatal(err)
	}
	main, err := her.NewSchema("main", []string{"key", "color", "ref"}, "key",
		her.ForeignKey{Attr: "ref", RefRelation: "dim"})
	if err != nil {
		t.Fatal(err)
	}
	db := her.NewDatabase(dim, main)
	db.Relation("dim").MustInsert("dim A", "us")
	db.Relation("main").MustInsert("entity 0", "red", "dim A")
	db.Relation("main").MustInsert("entity 1", "blue", "dim B")

	g := her.NewGraph()
	for _, e := range [][2]string{{"entity 0", "red"}, {"entity 1", "blue"}} {
		v := g.AddVertex("main")
		g.MustAddEdge(v, g.AddVertex(e[0]), "key")
		g.MustAddEdge(v, g.AddVertex(e[1]), "color")
	}
	sys, err := her.New(db, g, her.Options{Seed: 1, Sigma: 0.7, Delta: 0.9, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	def := her.NewViewDef("mirror")
	for _, rel := range db.RelationNames() {
		def.Vertex(rel).ProjectAll()
	}
	def.Edge("ref", "main", "ref")
	if err := sys.AddViewDef(def); err != nil {
		t.Fatal(err)
	}
	srv, err := NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.Recorder = nil // the request's context reaches the engine as the test made it
	return srv, sys
}

// engineCtx is a request context that runs fire, once, the first time
// code of package shard reads a value from it — from inside the
// engine's serve, after the handler resolved the tuple.
type engineCtx struct {
	context.Context
	once sync.Once
	fire func()
}

func (c *engineCtx) Value(key any) any {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "her/internal/shard.") {
			c.once.Do(c.fire)
			break
		}
		if !more {
			break
		}
	}
	return c.Context.Value(key)
}

// TestVPairServesTheTupleAcrossARecompile: a recompile of a rule view
// that lands between the handler's resolution of the tuple and the
// engine's answer renumbers the vertex the handler resolved. The
// handler must notice and answer for the tuple it was asked about — the
// sequential oracle's answer — not for whatever the old vertex id
// denotes in the recompiled graph.
func TestVPairServesTheTupleAcrossARecompile(t *testing.T) {
	srv, sys := danglingServer(t)
	mirror, err := sys.View("mirror")
	if err != nil {
		t.Fatal(err)
	}
	before, err := mirror.TupleVertex("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	ctx := &engineCtx{Context: context.Background(), fire: func() {
		fired = true
		if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil {
			t.Error(err)
		}
	}}
	req := httptest.NewRequest(http.MethodGet, "/vpair?rel=main&tuple=0&view=mirror", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if !fired {
		t.Fatal("the engine never read the request context: no recompile was forced")
	}
	if after, _ := mirror.TupleVertex("main", 0); after == before {
		t.Fatalf("the recompile kept main/0 at vertex %d; the fixture must renumber it", before)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d %s", rec.Code, rec.Body)
	}
	var body vpairResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	want, err := mirror.VPair("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the oracle matches main/0 to nothing; the fixture must match it")
	}
	var got []her.VertexID
	for _, m := range body.Matches {
		got = append(got, her.VertexID(m.Vertex))
	}
	var wantV []her.VertexID
	for _, p := range want {
		wantV = append(wantV, p.V)
	}
	if fmt.Sprint(got) != fmt.Sprint(wantV) {
		t.Errorf("/vpair main/0 across a recompile matched %v, the oracle %v", got, wantV)
	}
}

// TestHitsWhileMutating serves cached /vpair requests on the direct and
// the mirror view while AddTuple, AddGraphVertex, AddGraphEdge and one
// recompile of the mirror land: the hits read the tuple index and G's
// labels without the system lock (meaningful under -race). Every body
// must decode, and every label must be G's label of its vertex.
func TestHitsWhileMutating(t *testing.T) {
	srv, sys := danglingServer(t)
	type served struct {
		vertex int32
		label  string
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	results := make([][]served, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view := []string{"direct", "mirror"}[i%2]
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				target := fmt.Sprintf("/vpair?rel=main&tuple=%d&view=%s", n%2, view)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: HTTP %d %s", target, rec.Code, rec.Body)
					return
				}
				var body vpairResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("%s: body %q: %v", target, rec.Body, err)
					return
				}
				for _, m := range body.Matches {
					results[i] = append(results[i], served{m.Vertex, m.Label})
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		v := sys.AddGraphVertex("main")
		if err := sys.AddGraphEdge(v, sys.AddGraphVertex(fmt.Sprintf("entity %d", i+2)), "key"); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.AddTuple("main", fmt.Sprintf("entity %d", i+2), "green", "dim A"); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil { // recompiles the mirror
				t.Fatal(err)
			}
		}
	}
	// Let the readers hit the final state's caches too.
	for want, deadline := requests.Load()+400, time.Now().Add(10*time.Second); requests.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	total := 0
	for _, rs := range results {
		for _, r := range rs {
			if want := sys.GraphLabel(her.VertexID(r.vertex)); r.label != want {
				t.Fatalf("vertex %d served with label %q, G labels it %q", r.vertex, r.label, want)
			}
		}
		total += len(rs)
	}
	if total == 0 {
		t.Fatal("no match was served")
	}
}
