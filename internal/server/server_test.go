package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"her"
)

// trainedSystem builds the quickstart-style catalog system used across
// the handler tests.
func trainedSystem(t *testing.T) (*her.System, her.VertexID, her.VertexID) {
	t.Helper()
	return trainedSystemWithOpts(t, her.Options{Seed: 2})
}

// catalogModels caches the trained model snapshot: training the metric
// network and ranker dominates test time (especially under -race), and
// LoadModels restores identical decisions (pinned by TestSaveLoadModels
// in the root package), so each test restores the snapshot into a fresh
// system instead of retraining.
var catalogModels struct {
	once sync.Once
	blob []byte
	err  error
}

// buildCatalog builds the catalog system with the given Options and
// restores (training on first use) the cached model snapshot into it.
// Shared by the handler tests and the fuzz harness.
func buildCatalog(opts her.Options) (*her.System, her.VertexID, her.VertexID, error) {
	build := func() (*her.Database, *her.Graph, her.VertexID, her.VertexID, error) {
		schema, err := her.NewSchema("product", []string{"name", "color"}, "name")
		if err != nil {
			return nil, nil, 0, 0, err
		}
		db := her.NewDatabase(schema)
		db.Relation("product").MustInsert("Aurora Trail Runner 7", "red")
		db.Relation("product").MustInsert("Comet Road Cruiser 2", "blue")

		g := her.NewGraph()
		mk := func(name, color string) her.VertexID {
			p := g.AddVertex("product")
			g.MustAddEdge(p, g.AddVertex(name), "productName")
			g.MustAddEdge(p, g.AddVertex(color), "hasColor")
			return p
		}
		p1 := mk("Aurora Trail Runner", "red")
		p2 := mk("Comet Road Cruiser", "blue")
		return db, g, p1, p2, nil
	}

	catalogModels.once.Do(func() {
		fail := func(err error) { catalogModels.err = err }
		db, g, _, _, err := build()
		if err != nil {
			fail(err)
			return
		}
		ref, err := her.New(db, g, her.Options{Seed: 2})
		if err != nil {
			fail(err)
			return
		}
		pairs := []her.PathPair{
			{A: []string{"name"}, B: []string{"productName"}, Match: true},
			{A: []string{"color"}, B: []string{"hasColor"}, Match: true},
			{A: []string{"name"}, B: []string{"hasColor"}, Match: false},
			{A: []string{"color"}, B: []string{"productName"}, Match: false},
		}
		var training []her.PathPair
		for i := 0; i < 30; i++ {
			training = append(training, pairs...)
		}
		if err := ref.TrainPathModel(training, 0); err != nil {
			fail(err)
			return
		}
		if err := ref.TrainRanker(50, 120); err != nil {
			fail(err)
			return
		}
		if err := ref.SetThresholds(her.Thresholds{Sigma: 0.75, Delta: 0.9, K: 5}); err != nil {
			fail(err)
			return
		}
		var buf bytes.Buffer
		if err := ref.SaveModels(&buf); err != nil {
			fail(err)
			return
		}
		catalogModels.blob = buf.Bytes()
	})
	if catalogModels.err != nil {
		return nil, 0, 0, catalogModels.err
	}

	db, g, p1, p2, err := build()
	if err != nil {
		return nil, 0, 0, err
	}
	sys, err := her.New(db, g, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := sys.LoadModels(bytes.NewReader(catalogModels.blob)); err != nil {
		return nil, 0, 0, err
	}
	return sys, p1, p2, nil
}

// trainedSystemWithOpts is trainedSystem with caller-chosen Options
// (e.g. a metrics registry).
func trainedSystemWithOpts(t *testing.T, opts her.Options) (*her.System, her.VertexID, her.VertexID) {
	t.Helper()
	sys, p1, p2, err := buildCatalog(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, p1, p2
}

// newServer builds a one-shard server over sys and stops its shard
// workers when the test ends.
func newServer(t testing.TB, sys *her.System) *Server {
	t.Helper()
	srv, err := NewSharded(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, h http.Handler, url string) (int, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON from %s: %v (%s)", url, err, rec.Body.String())
	}
	return rec.Code, body
}

func TestHealthz(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	code, body := get(t, newServer(t, sys), "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, body)
	}
}

func TestSPairEndpoint(t *testing.T) {
	sys, p1, p2 := trainedSystem(t)
	srv := newServer(t, sys)
	code, body := get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p1))
	if code != http.StatusOK || body["match"] != true {
		t.Errorf("spair true case = %d %v", code, body)
	}
	code, body = get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p2))
	if code != http.StatusOK || body["match"] != false {
		t.Errorf("spair false case = %d %v", code, body)
	}
	// Errors.
	if code, _ := get(t, srv, "/spair?rel=product&tuple=zzz&vertex=0"); code != http.StatusBadRequest {
		t.Errorf("bad tuple = %d", code)
	}
	if code, _ := get(t, srv, "/spair?tuple=0&vertex=0"); code != http.StatusBadRequest {
		t.Errorf("missing rel = %d", code)
	}
	if code, _ := get(t, srv, "/spair?rel=ghost&tuple=0&vertex=0"); code != http.StatusNotFound {
		t.Errorf("unknown relation = %d", code)
	}
	// Out-of-range vertices must be rejected, not crash the matcher.
	if code, _ := get(t, srv, "/spair?rel=product&tuple=0&vertex=9999"); code != http.StatusNotFound {
		t.Errorf("out-of-range vertex = %d", code)
	}
	if code, _ := get(t, srv, "/spair?rel=product&tuple=0&vertex=-1"); code != http.StatusNotFound {
		t.Errorf("negative vertex = %d", code)
	}
}

func TestVPairEndpoint(t *testing.T) {
	sys, p1, _ := trainedSystem(t)
	code, body := get(t, newServer(t, sys), "/vpair?rel=product&tuple=0")
	if code != http.StatusOK {
		t.Fatalf("vpair = %d %v", code, body)
	}
	matches := body["matches"].([]interface{})
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	m := matches[0].(map[string]interface{})
	if int32(m["vertex"].(float64)) != int32(p1) {
		t.Errorf("wrong vertex: %v", m)
	}
}

func TestAPairEndpoint(t *testing.T) {
	sys, _, _ := trainedSystem(t)
	code, body := get(t, newServer(t, sys), "/apair")
	if code != http.StatusOK {
		t.Fatalf("apair = %d %v", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("count = %v", body["count"])
	}
	// Tuple labels are "relation/id" — pinned so the manual append
	// formatting (which replaced fmt.Sprintf) can't drift.
	for _, m := range body["matches"].([]interface{}) {
		label := m.(map[string]interface{})["tuple"].(string)
		if !regexp.MustCompile(`^[A-Za-z_]\w*/\d+$`).MatchString(label) {
			t.Errorf("tuple label %q not in relation/id form", label)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	sys, p1, p2 := trainedSystem(t)
	srv := newServer(t, sys)
	code, body := get(t, srv, "/explain?rel=product&tuple=0&vertex="+itoa(p1))
	if code != http.StatusOK {
		t.Fatalf("explain = %d %v", code, body)
	}
	schema := body["schemaMatches"].(map[string]interface{})
	if schema["name"] != "productName" {
		t.Errorf("schema matches = %v", schema)
	}
	if code, _ := get(t, srv, "/explain?rel=product&tuple=0&vertex="+itoa(p2)); code != http.StatusNotFound {
		t.Errorf("non-match explain = %d", code)
	}
	if code, _ := get(t, srv, "/explain?rel=product&tuple=0&vertex=9999"); code != http.StatusNotFound {
		t.Errorf("out-of-range vertex explain = %d", code)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	sys, p1, p2 := trainedSystem(t)
	srv := newServer(t, sys)
	// Refute the true match, confirm the false one.
	payload := `[{"rel":"product","tuple":0,"vertex":` + itoa(p1) + `,"match":false},
	             {"rel":"product","tuple":0,"vertex":` + itoa(p2) + `,"match":true}]`
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback = %d %s", rec.Code, rec.Body.String())
	}
	// The verdicts must now govern SPair.
	_, body := get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p1))
	if body["match"] != false {
		t.Error("refuted pair still matches")
	}
	_, body = get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p2))
	if body["match"] != true {
		t.Error("confirmed pair still rejected")
	}
	// GET is rejected.
	if code, _ := get(t, srv, "/feedback"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET feedback = %d", code)
	}
	// Out-of-range vertices in the payload are rejected.
	req = httptest.NewRequest(http.MethodPost, "/feedback",
		strings.NewReader(`[{"rel":"product","tuple":0,"vertex":9999,"match":true}]`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("out-of-range vertex feedback = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	sys, p1, _ := trainedSystem(t)
	srv := newServer(t, sys)
	get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p1))
	code, body := get(t, srv, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	th := body["thresholds"].(map[string]interface{})
	if th["k"].(float64) != 5 {
		t.Errorf("thresholds = %v", th)
	}
	// The fragment sizes are read live: a vertex added in place (the next
	// request replays its delta) shows up in some fragment's owned count.
	sys.AddGraphVertex("accessory")
	get(t, srv, "/spair?rel=product&tuple=0&vertex="+itoa(p1))
	_, body = get(t, srv, "/stats")
	shard := body["shard"].(map[string]interface{})
	owned := 0
	for _, f := range shard["fragments"].([]interface{}) {
		owned += int(f.(map[string]interface{})["owned"].(float64))
	}
	if owned != sys.G.NumVertices() || shard["deltasApplied"].(float64) != 1 {
		t.Errorf("fragments own %d vertices after %v deltas, |V_G| = %d", owned, shard["deltasApplied"], sys.G.NumVertices())
	}
}

func itoa(v her.VertexID) string { return strconv.Itoa(int(v)) }
