package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"her"
	"her/internal/shard"
)

// TestExpiredBudget503: /spair, /vpair and /apair answer 503 when the
// request's budget is already spent — cancelled by the client or past
// its deadline — instead of matching, on a cold engine where no cached
// result could answer first.
func TestExpiredBudget503(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, ctx := range map[string]context.Context{"cancelled": cancelled, "expired": expired} {
		sys, p1, _ := trainedSystem(t)
		one := newServer(t, sys)
		two, err := NewSharded(sys, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(two.Close)
		for _, srv := range []*Server{one, two} {
			for _, url := range []string{
				"/spair?rel=product&tuple=0&vertex=" + itoa(p1),
				"/vpair?rel=product&tuple=0",
				"/apair",
			} {
				req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusServiceUnavailable {
					t.Errorf("%s context, %d shards, %s = %d %s, want 503", name, srv.shards, url, rec.Code, rec.Body)
				}
			}
		}
	}
}

// TestTimeoutParam: timeout_ms can only tighten the server deadline,
// and malformed values are rejected up front.
func TestTimeoutParam(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv := newServer(t, sys)
	for _, c := range []struct {
		deadline time.Duration
		param    string
		want     time.Duration // 0 = no deadline
	}{
		{0, "", 0},
		{0, "40", 40 * time.Millisecond},
		{5 * time.Second, "40", 40 * time.Millisecond},
		{40 * time.Millisecond, "5000", 40 * time.Millisecond},
		{40 * time.Millisecond, "", 40 * time.Millisecond},
	} {
		srv.Deadline = c.deadline
		url := "/vpair?rel=product&tuple=0"
		if c.param != "" {
			url += "&timeout_ms=" + c.param
		}
		before := time.Now()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		q := parseQuery(req.URL.RawQuery)
		ctx, cancel, err := srv.budget(req.Context(), &q)
		if err != nil {
			t.Fatalf("Deadline %v, %s: %v", c.deadline, url, err)
		}
		at, ok := ctx.Deadline()
		cancel()
		if ok != (c.want > 0) || ok && (at.Before(before.Add(c.want)) || at.After(time.Now().Add(c.want))) {
			t.Errorf("Deadline %v, %s: budget ends %v (set %t), want %v from now", c.deadline, url, at.Sub(before), ok, c.want)
		}
	}
	srv.Deadline = 0
	for _, bad := range []string{"nope", "0", "-5"} {
		url := "/vpair?rel=product&tuple=0&timeout_ms=" + bad
		if code, _ := get(t, srv, url); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", url, code)
		}
	}
	// A generous budget passes through to the engine unharmed.
	srv.Deadline = 5 * time.Second
	if code, _ := get(t, srv, "/vpair?rel=product&tuple=0&timeout_ms=5000"); code != http.StatusOK {
		t.Errorf("generous timeout = %d, want 200", code)
	}
}

// TestWriteMatchErr pins the transport mapping of the matching-path
// failure modes: shed load → 429 + Retry-After, expired budget → 503.
func TestWriteMatchErr(t *testing.T) {
	write := func(err error, fallback int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		x := exchanges.Get().(*exchange)
		x.ResponseWriter = rec
		x.writeMatchErr(err, fallback)
		return rec
	}
	rec := write(fmt.Errorf("gather: %w", shard.ErrOverloaded), http.StatusInternalServerError)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("ErrOverloaded = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}
	rec = write(context.DeadlineExceeded, http.StatusInternalServerError)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("DeadlineExceeded = %d, want 503", rec.Code)
	}
	rec = write(errors.New("boom"), http.StatusNotFound)
	if rec.Code != http.StatusNotFound {
		t.Errorf("fallback = %d, want 404", rec.Code)
	}
}

// TestServingEquivalence: every shard count serves what the library's
// sequential matcher computes. Over one system hosting a rule view
// beside direct, a one-shard server whose rule-view engine was built at
// its first request and the servers NewSharded built at 1, 2, 4 and
// more shards than G has vertices
// answer every /spair, /vpair and /apair with byte-identical bodies (up
// to /apair's shard-layout stats, which name the shard count), and
// those answers are the ViewHandle oracle's.
func TestServingEquivalence(t *testing.T) {
	def, sys, _ := viewServer(t, 0)
	servers := []*Server{def}
	for _, n := range []int{1, 2, 4, 50} {
		srv, err := NewSharded(sys, n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
	}
	// every asks each server for url and returns the one body they agree
	// on; cut trims what may differ from a body before comparing.
	every := func(url string, cut func(string) string) string {
		t.Helper()
		var first string
		for i, srv := range servers {
			code, body := getRaw(t, srv, url)
			if code != http.StatusOK {
				t.Fatalf("%s at %d shards = %d %s", url, srv.shards, code, body)
			}
			if body = cut(body); i == 0 {
				first = body
			} else if body != first {
				t.Errorf("%s at %d shards diverges from one shard:\n%s\n%s", url, srv.shards, body, first)
			}
		}
		return first
	}
	whole := func(body string) string { return body }
	// /stats reports the one-shard layout.
	if _, stats := get(t, def, "/stats"); stats["shard"].(map[string]interface{})["shards"] != float64(1) {
		t.Errorf("one-shard /stats shard section = %v", stats["shard"])
	}

	for _, name := range sys.ViewNames() {
		vh, err := sys.View(name)
		if err != nil {
			t.Fatal(err)
		}
		q := "&view=" + name
		for tuple := range sys.DB.Relation("product").Tuples {
			want, err := vh.VPair("product", tuple)
			if err != nil {
				t.Fatal(err)
			}
			matches := []matchJSON{}
			for _, p := range want {
				matches = append(matches, matchJSON{Vertex: int32(p.V), Label: sys.GraphLabel(p.V)})
			}
			oracle, _ := json.Marshal(map[string]interface{}{"rel": "product", "tuple": tuple, "matches": matches})
			if got := every(fmt.Sprintf("/vpair?rel=product&tuple=%d%s", tuple, q), whole); got != string(oracle)+"\n" {
				t.Errorf("view %s: /vpair tuple %d = %s, library oracle %s", name, tuple, got, oracle)
			}
			for v := 0; v < sys.G.NumVertices(); v++ {
				want, err := vh.SPair("product", tuple, her.VertexID(v))
				if err != nil {
					t.Fatal(err)
				}
				oracle, _ := json.Marshal(map[string]interface{}{"rel": "product", "tuple": tuple, "vertex": v, "match": want})
				if got := every(fmt.Sprintf("/spair?rel=product&tuple=%d&vertex=%d%s", tuple, v, q), whole); got != string(oracle)+"\n" {
					t.Errorf("view %s: /spair (%d, %d) = %s, library oracle %s", name, tuple, v, got, oracle)
				}
			}
		}
		var rows []string
		for _, p := range vh.APair() {
			ref, _ := vh.TupleOf(p.U)
			rows = append(rows, fmt.Sprintf(`{"tuple":"%s/%d","vertex":%d}`, ref.Relation, ref.TupleID, p.V))
		}
		oracle := fmt.Sprintf(`{"count":%d,"matches":[%s],`, len(rows), strings.Join(rows, ","))
		got := every("/apair?view="+name, func(body string) string { return body[:strings.Index(body, `"stats"`)] })
		if got != oracle {
			t.Errorf("view %s: /apair = %s, library oracle %s", name, got, oracle)
		}
	}
	// With the shard count equal, nothing is trimmed: New ≡ NewSharded(sys, 1).
	servers = servers[:2]
	every("/apair", whole)
}

// TestLateViewServed: a view installed after the server was built is
// served like any other — through its own engine, at the server's shard
// count, answering what the view's sequential matcher does.
func TestLateViewServed(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	srv, err := NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	def := her.NewViewDef("late")
	for _, rel := range sys.DB.RelationNames() {
		def.Vertex(rel).ProjectAll()
	}
	if err := sys.AddViewDef(def); err != nil {
		t.Fatal(err)
	}
	vh, err := sys.View("late")
	if err != nil {
		t.Fatal(err)
	}
	want, err := vh.VPair("product", 0)
	if err != nil || len(want) == 0 {
		t.Fatalf("fixture: late view VPair = %v, %v", want, err)
	}
	code, body := get(t, srv, "/vpair?rel=product&tuple=0&view=late")
	if code != http.StatusOK {
		t.Fatalf("/vpair on the late view = %d %v", code, body)
	}
	var got []her.VertexID
	for _, m := range body["matches"].([]interface{}) {
		got = append(got, her.VertexID(m.(map[string]interface{})["vertex"].(float64)))
	}
	if len(got) != len(want) {
		t.Fatalf("late view serves %v, sequential %v", got, want)
	}
	for i, p := range want {
		if got[i] != p.V {
			t.Fatalf("late view serves %v, sequential %v", got, want)
		}
	}
	eng, err := srv.engine(vh)
	if err != nil {
		t.Fatal(err)
	}
	if info := eng.Snapshot(); info.Shards != 2 || info.CacheLen != 1 {
		t.Errorf("late view's engine = %+v, want 2 shards holding the served result", info)
	}
}

// TestCloseStopsWorkers: every server owns shard workers, and Close
// returns the process to the goroutine count it had before NewSharded —
// for the engines NewSharded built up front and the ones requests built.
func TestCloseStopsWorkers(t *testing.T) {
	_, sys, _ := viewServer(t, 0)
	// Servers closed by earlier tests may still have workers on their way
	// out: take the baseline once the count has stopped moving.
	base := runtime.NumGoroutine()
	for quiet := 0; quiet < 1000; quiet++ {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n != base {
			base, quiet = n, 0
		}
	}
	one, err := NewSharded(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	get(t, one, "/vpair?rel=product&tuple=0")
	get(t, one, "/apair?view=mirror")
	three, err := NewSharded(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	get(t, three, "/vpair?rel=product&tuple=0&view=mirror")
	if n := runtime.NumGoroutine(); n != base+2+6 {
		t.Errorf("%d goroutines serving, want %d + one worker per shard per view (2 + 6)", n, base)
	}
	// A view installed now gets its engine at its first request.
	def := her.NewViewDef("late")
	for _, rel := range sys.DB.RelationNames() {
		def.Vertex(rel).ProjectAll()
	}
	if err := sys.AddViewDef(def); err != nil {
		t.Fatal(err)
	}
	get(t, three, "/vpair?rel=product&tuple=0&view=late")
	if n := runtime.NumGoroutine(); n != base+2+9 {
		t.Errorf("%d goroutines serving after a late view's first request, want %d + 2 + 9", n, base)
	}
	one.Close()
	three.Close()
	// Workers exit on their own schedule once their queues close.
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Close, %d before NewSharded", runtime.NumGoroutine(), base)
			}
		}
	}
	settle()
	// A closed server builds no engine to answer with, not even for a
	// view it has not served yet.
	idle, err := NewSharded(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	idle.Close()
	settle()
	late := her.NewViewDef("later")
	for _, rel := range sys.DB.RelationNames() {
		late.Vertex(rel).ProjectAll()
	}
	if err := sys.AddViewDef(late); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, idle, "/vpair?rel=product&tuple=0&view=later"); code == http.StatusOK || runtime.NumGoroutine() > base {
		t.Errorf("request after Close = %d, %d goroutines (%d before NewSharded)", code, runtime.NumGoroutine(), base)
	}
}

// TestShardedStaleRead is the cache-invalidation regression: a /vpair
// result is cached, feedback flips the verdicts (bumping the system
// generation), and the next /vpair must reflect the new verdicts
// instead of serving the stale cached entry.
func TestShardedStaleRead(t *testing.T) {
	sys, p1, p2 := trainedSystem(t)
	srv, err := NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vpairVertices := func() map[int32]bool {
		t.Helper()
		code, body := get(t, srv, "/vpair?rel=product&tuple=0")
		if code != http.StatusOK {
			t.Fatalf("vpair = %d %v", code, body)
		}
		out := map[int32]bool{}
		for _, m := range body["matches"].([]interface{}) {
			out[int32(m.(map[string]interface{})["vertex"].(float64))] = true
		}
		return out
	}

	before := vpairVertices()
	if !before[int32(p1)] || before[int32(p2)] {
		t.Fatalf("baseline vpair = %v, want {%d}", before, p1)
	}
	// Ask again: this round is served from the generation-stamped cache.
	if again := vpairVertices(); !again[int32(p1)] {
		t.Fatalf("cached vpair lost the match: %v", again)
	}
	// Flip both verdicts through the feedback loop.
	payload := `[{"rel":"product","tuple":0,"vertex":` + itoa(p1) + `,"match":false},
	             {"rel":"product","tuple":0,"vertex":` + itoa(p2) + `,"match":true}]`
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback = %d %s", rec.Code, rec.Body.String())
	}
	after := vpairVertices()
	if after[int32(p1)] {
		t.Error("stale read: refuted pair still served from cache")
	}
	if !after[int32(p2)] {
		t.Error("stale read: confirmed pair missing after feedback")
	}
}

// TestShardedIncrementalUpdate: AddGraphVertex/AddGraphEdge bump the
// generation, so a newly wired replica becomes visible through the
// sharded /vpair without restarting the engine.
func TestShardedIncrementalUpdate(t *testing.T) {
	sys, p1, _ := trainedSystem(t)
	srv, err := NewSharded(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv, "/vpair?rel=product&tuple=0")
	if code != http.StatusOK || len(body["matches"].([]interface{})) != 1 {
		t.Fatalf("baseline vpair = %d %v", code, body)
	}
	gen0 := sys.Generation()

	// Wire an exact replica of tuple 0's entity into G.
	p := sys.AddGraphVertex("product")
	n := sys.AddGraphVertex("Aurora Trail Runner")
	c := sys.AddGraphVertex("red")
	if err := sys.AddGraphEdge(p, n, "productName"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddGraphEdge(p, c, "hasColor"); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() == gen0 {
		t.Fatal("incremental updates did not bump the generation")
	}

	_, body = get(t, srv, "/vpair?rel=product&tuple=0")
	got := map[int32]bool{}
	for _, m := range body["matches"].([]interface{}) {
		got[int32(m.(map[string]interface{})["vertex"].(float64))] = true
	}
	if !got[int32(p1)] || !got[int32(p)] {
		t.Fatalf("post-update vpair = %v, want both %d and %d", got, p1, p)
	}
	if info := srv.Engine().Snapshot(); info.Generation != sys.Generation() {
		t.Errorf("engine generation %d, system %d: rebuild did not happen",
			info.Generation, sys.Generation())
	}
}

// TestShardedCacheSurvivesWrite is the delta-maintenance regression for
// the serving path: AddTuple extends G_D with a region no old verdict
// depends on, so a cached /vpair for an OLD tuple must survive the
// write — re-stamped by the delta sweep and served as a cache hit, not
// recomputed — while still answering exactly as before.
func TestShardedCacheSurvivesWrite(t *testing.T) {
	sys, p1, _ := trainedSystem(t)
	srv, err := NewSharded(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vpair := func() map[int32]bool {
		t.Helper()
		code, body := get(t, srv, "/vpair?rel=product&tuple=0")
		if code != http.StatusOK {
			t.Fatalf("vpair = %d %v", code, body)
		}
		out := map[int32]bool{}
		for _, m := range body["matches"].([]interface{}) {
			out[int32(m.(map[string]interface{})["vertex"].(float64))] = true
		}
		return out
	}

	before := vpair()
	if !before[int32(p1)] {
		t.Fatalf("baseline vpair = %v, want %d", before, p1)
	}
	if _, err := sys.AddTuple("product", "Zephyr Canyon Clog 9", "mauve"); err != nil {
		t.Fatal(err)
	}
	pre := srv.Engine().Snapshot()
	after := vpair()
	post := srv.Engine().Snapshot()

	if !after[int32(p1)] || len(after) != len(before) {
		t.Fatalf("old tuple's vpair changed across an unrelated AddTuple: %v → %v", before, after)
	}
	if post.CacheSurvived <= pre.CacheSurvived {
		t.Fatalf("vpair entry did not survive the AddTuple sweep (survived %d → %d)",
			pre.CacheSurvived, post.CacheSurvived)
	}
	if post.FullRebuilds != pre.FullRebuilds {
		t.Fatalf("AddTuple forced a full engine rebuild (%d → %d); the delta path is dead",
			pre.FullRebuilds, post.FullRebuilds)
	}
	if post.DeltasApplied != pre.DeltasApplied+1 {
		t.Fatalf("deltasApplied %d → %d, want one in-place application",
			pre.DeltasApplied, post.DeltasApplied)
	}
}
