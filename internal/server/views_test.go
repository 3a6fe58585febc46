package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"her"
)

// viewServer builds the catalog system hosting a direct-shaped "mirror"
// rule view beside the direct view, served sequentially (shards = 0) or
// through per-view shard engines.
func viewServer(t *testing.T, shards int) (*Server, *her.System, her.VertexID) {
	t.Helper()
	sys, p1, _ := trainedSystem(t)
	def := her.NewViewDef("mirror")
	for _, rel := range sys.DB.RelationNames() {
		def.Vertex(rel).ProjectAll()
	}
	if err := sys.AddViewDef(def); err != nil {
		t.Fatal(err)
	}
	if shards == 0 {
		return New(sys), sys, p1
	}
	srv, err := NewSharded(sys, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, sys, p1
}

// TestViewParamRouting sends view= through every view-addressed
// endpoint in both serving modes: "" and "direct" are the same view
// (byte-identical bodies), the direct-shaped mirror answers the same
// matches from its own state, and an unknown view is 404.
func TestViewParamRouting(t *testing.T) {
	for _, shards := range []int{0, 2} {
		srv, _, p1 := viewServer(t, shards)
		withView := func(path, view string) string {
			if view == "" {
				return path
			}
			sep := "?"
			if strings.Contains(path, "?") {
				sep = "&"
			}
			return path + sep + "view=" + url.QueryEscape(view)
		}
		for _, ep := range []struct {
			path string
			same string // JSON field the mirror must answer like direct
		}{
			{"/spair?rel=product&tuple=0&vertex=" + itoa(p1), "match"},
			{"/vpair?rel=product&tuple=0", "matches"},
			{"/apair", "matches"},
			{"/explain?rel=product&tuple=0&vertex=" + itoa(p1), "lineage"},
			{"/extract", ""},
		} {
			name := fmt.Sprintf("shards=%d %s", shards, ep.path)
			codeDefault, bodyDefault := getRaw(t, srv, ep.path)
			codeDirect, bodyDirect := getRaw(t, srv, withView(ep.path, her.DirectViewName))
			if codeDefault != http.StatusOK || codeDirect != http.StatusOK {
				t.Fatalf("%s: default %d, view=direct %d (%s)", name, codeDefault, codeDirect, bodyDirect)
			}
			if bodyDefault != bodyDirect {
				t.Errorf("%s: view=direct body differs from the default's:\n%s\n%s", name, bodyDefault, bodyDirect)
			}
			if ep.same == "" {
				// The mirror compiles to the same graph bytes as direct.
				if code, body := getRaw(t, srv, withView(ep.path, "mirror")); code != http.StatusOK || body != bodyDirect {
					t.Errorf("%s: view=mirror %d, TSV differs from direct's: %v", name, code, body != bodyDirect)
				}
			} else {
				_, direct := get(t, srv, ep.path)
				code, mirror := get(t, srv, withView(ep.path, "mirror"))
				if code != http.StatusOK || fmt.Sprint(mirror[ep.same]) != fmt.Sprint(direct[ep.same]) {
					t.Errorf("%s: view=mirror %d answers %v, direct %v", name, code, mirror[ep.same], direct[ep.same])
				}
			}
			if code, body := get(t, srv, withView(ep.path, "nope")); code != http.StatusNotFound ||
				!strings.Contains(fmt.Sprint(body["error"]), `unknown view "nope"`) {
				t.Errorf("%s: unknown view answered %d %v", name, code, body)
			}
		}

		// /views lists the whole table whatever view= says, and /stats
		// reports an engine per hosted view exactly in sharded mode.
		_, views := getRaw(t, srv, "/views")
		if _, again := getRaw(t, srv, "/views?view=nope"); again != views ||
			!strings.Contains(views, `"count":2`) || strings.Index(views, `"direct"`) > strings.Index(views, `"mirror"`) {
			t.Errorf("shards=%d: /views = %s / %s", shards, views, again)
		}
		_, stats := get(t, srv, "/stats")
		for _, v := range stats["views"].([]interface{}) {
			if got := v.(map[string]interface{})["sharded"]; got != (shards > 0) {
				t.Errorf("shards=%d: /stats view entry %v", shards, v)
			}
		}
	}
}

// TestAPairWorkersOnNamedView: the BSP engine serves any hosted view,
// so /apair?view=mirror&workers=2 runs in parallel and answers exactly
// what the view's sequential matcher does.
func TestAPairWorkersOnNamedView(t *testing.T) {
	srv, sys, _ := viewServer(t, 0)
	vh, err := sys.View("mirror")
	if err != nil {
		t.Fatal(err)
	}
	seq := vh.APair()
	if len(seq) == 0 {
		t.Fatal("fixture: the mirror view has no matches")
	}
	var want []interface{}
	for _, p := range seq {
		ref, _ := vh.TupleOf(p.U)
		want = append(want, map[string]interface{}{
			"tuple": fmt.Sprintf("%s/%d", ref.Relation, ref.TupleID), "vertex": float64(p.V)})
	}
	code, body := get(t, srv, "/apair?view=mirror&workers=2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if fmt.Sprint(body["matches"]) != fmt.Sprint(want) || body["count"] != float64(len(seq)) {
		t.Errorf("parallel /apair on mirror = %v (count %v), sequential %v", body["matches"], body["count"], want)
	}
	if w := body["stats"].(map[string]interface{})["workers"]; w != float64(2) {
		t.Errorf("stats = %v, want a 2-worker BSP run", body["stats"])
	}
}
