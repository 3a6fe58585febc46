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
// rule view beside the direct view, served by NewSharded at the given
// shard count; shards = 0 serves one shard and installs the mirror after
// the server was built, so its engine is built at its first request.
func viewServer(t *testing.T, shards int) (*Server, *her.System, her.VertexID) {
	t.Helper()
	sys, p1, _ := trainedSystem(t)
	addMirror := func() {
		def := her.NewViewDef("mirror")
		for _, rel := range sys.DB.RelationNames() {
			def.Vertex(rel).ProjectAll()
		}
		if err := sys.AddViewDef(def); err != nil {
			t.Fatal(err)
		}
	}
	if shards == 0 {
		srv := newServer(t, sys)
		addMirror()
		return srv, sys, p1
	}
	addMirror()
	srv, err := NewSharded(sys, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, sys, p1
}

// TestViewParamRouting sends view= through every view-addressed
// endpoint, on engines built lazily and up front: "" and "direct" are the same view
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
		// has a row per hosted view.
		_, views := getRaw(t, srv, "/views")
		if _, again := getRaw(t, srv, "/views?view=nope"); again != views ||
			!strings.Contains(views, `"count":2`) || strings.Index(views, `"direct"`) > strings.Index(views, `"mirror"`) {
			t.Errorf("shards=%d: /views = %s / %s", shards, views, again)
		}
		_, stats := get(t, srv, "/stats")
		var rows []interface{}
		for _, v := range stats["views"].([]interface{}) {
			rows = append(rows, v.(map[string]interface{})["name"])
		}
		if fmt.Sprint(rows) != "[direct mirror]" {
			t.Errorf("shards=%d: /stats views = %v", shards, stats["views"])
		}
	}
}
