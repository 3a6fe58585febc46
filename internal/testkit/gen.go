package testkit

import (
	"fmt"
	"math/rand"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// Value pools are kept tiny on purpose: collisions across tuples and
// noise vertices are what create hard candidates, shared leaves and
// cleanup cascades.
var (
	mainAttrPool = []string{"color", "brand", "origin", "grade", "size"}
	dimAttrPool  = []string{"country", "city", "sector"}
	junkEdgePool = []string{"relatedTo", "seeAlso", "zz"}
)

func poolValue(attr string, i int) string { return fmt.Sprintf("%s %d", attr, i) }

// GenWorkload generates the planted relational workload for seed: a
// random schema (main relation with optional FK to a dimension relation,
// nullable attributes), a random database, its canonical graph G_D, and
// a target graph G holding exact canonical replicas of every dimension
// tuple and a random subset of main tuples (the planted matches), plus
// near-twin distractors and random noise vertices/edges.
//
// The planted guarantee relies on three generator choices: replicas copy
// the canonical structure exactly (one fresh leaf per attribute, so h_ρ
// pairs mirror paths 1-1), k exceeds every tuple's fan-out (no top-k
// truncation can drop a mirrored property), and δ ≤ 0.5 (a single
// mirrored 1-hop property, e.g. the never-null key, already reaches δ).
// Noise only ever adds edges INTO replica vertices, never out of them,
// so replica out-structure — paths, PRA ranks, top-k — stays mirrored.
func GenWorkload(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))

	// ---- Random schema --------------------------------------------------
	nAttrs := 1 + rng.Intn(3) // non-key attributes of the main relation
	attrs := []string{"key"}
	attrs = append(attrs, mainAttrPool[:nAttrs]...)
	hasDim := rng.Float64() < 0.6

	var schemas []*relational.Schema
	var fks []relational.ForeignKey
	if hasDim {
		nDimAttrs := 1 + rng.Intn(2)
		dimAttrs := append([]string{"dkey"}, dimAttrPool[:nDimAttrs]...)
		ds, err := relational.NewSchema("dim", dimAttrs, "dkey")
		if err != nil {
			return nil, err
		}
		schemas = append(schemas, ds)
		attrs = append(attrs, "ref")
		fks = append(fks, relational.ForeignKey{Attr: "ref", RefRelation: "dim"})
	}
	ms, err := relational.NewSchema("main", attrs, "key", fks...)
	if err != nil {
		return nil, err
	}
	schemas = append(schemas, ms)
	db := relational.NewDatabase(schemas...)

	// ---- Random database ------------------------------------------------
	nDim := 0
	var dimKeys []string
	if hasDim {
		nDim = 2 + rng.Intn(3)
		rel := db.Relation("dim")
		for d := 0; d < nDim; d++ {
			row := []string{fmt.Sprintf("dim %04d", d)}
			for _, a := range rel.Schema.Attrs[1:] {
				if rng.Float64() < 0.2 {
					row = append(row, relational.Null)
				} else {
					row = append(row, poolValue(a, rng.Intn(3)))
				}
			}
			dimKeys = append(dimKeys, row[0])
			rel.MustInsert(row...)
		}
	}
	nMain := 3 + rng.Intn(6)
	rel := db.Relation("main")
	for t := 0; t < nMain; t++ {
		row := []string{fmt.Sprintf("entity %04d", t)}
		for _, a := range rel.Schema.Attrs[1:] {
			switch {
			case a == "ref":
				if rng.Float64() < 0.2 {
					row = append(row, relational.Null)
				} else {
					row = append(row, dimKeys[rng.Intn(nDim)])
				}
			case rng.Float64() < 0.25:
				row = append(row, relational.Null)
			default:
				row = append(row, poolValue(a, rng.Intn(4)))
			}
		}
		rel.MustInsert(row...)
	}
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("testkit: generated database invalid: %w", err)
	}

	gd, mapping, err := rdb2rdf.Map(db)
	if err != nil {
		return nil, err
	}

	// ---- Target graph: canonical replicas + twins + noise ---------------
	g := graph.New()
	w := &Workload{Seed: seed, DB: db, Mapping: mapping, GD: gd, G: g}

	// replicate copies one tuple's canonical subtree into G: a vertex
	// labeled with the relation name, one fresh leaf per non-null non-FK
	// attribute, and FK edges to the given dimension replicas.
	replicate := func(relName string, t relational.Tuple, fkTarget map[string]graph.VID) graph.VID {
		r := db.Relation(relName)
		v := g.AddVertex(relName)
		for i, a := range r.Schema.Attrs {
			val := t.Values[i]
			if relational.IsNull(val) {
				continue
			}
			if a == "ref" {
				if tv, ok := fkTarget[val]; ok {
					g.MustAddEdge(v, tv, a)
				}
				continue
			}
			g.MustAddEdge(v, g.AddVertex(val), a)
		}
		return v
	}

	// Every dimension tuple is replicated (FK mirrors must exist for the
	// planted guarantee); each is itself a planted match.
	dimReplica := make(map[string]graph.VID, nDim)
	if hasDim {
		for _, t := range db.Relation("dim").Tuples {
			v := replicate("dim", t, nil)
			dimReplica[t.Values[0]] = v
			ut, _ := mapping.VertexOf("dim", t.ID)
			w.Planted = append(w.Planted, core.Pair{U: ut, V: v})
		}
	}
	// A random subset of main tuples is planted.
	var replicas []graph.VID
	for _, t := range db.Relation("main").Tuples {
		if rng.Float64() >= 0.75 {
			continue
		}
		v := replicate("main", t, dimReplica)
		replicas = append(replicas, v)
		ut, _ := mapping.VertexOf("main", t.ID)
		w.Planted = append(w.Planted, core.Pair{U: ut, V: v})
	}

	// Near twins: a replica of a random main tuple with one attribute
	// value changed — a hard negative that shares everything shallow.
	if len(replicas) > 0 && rng.Float64() < 0.6 {
		t := db.Relation("main").Tuples[rng.Intn(nMain)]
		tw := make([]string, len(t.Values))
		copy(tw, t.Values)
		tw[0] = fmt.Sprintf("entity %04d twin", t.ID)
		replicate("main", relational.Tuple{ID: -1, Values: tw}, dimReplica)
	}

	// Noise: extra vertices labeled like tuples or values, with random
	// edges from noise into anything (including replicas — in-edges do
	// not perturb replica out-structure).
	nNoise := rng.Intn(8)
	noiseStart := g.NumVertices()
	for i := 0; i < nNoise; i++ {
		if rng.Float64() < 0.4 {
			g.AddVertex([]string{"main", "dim"}[rng.Intn(2)])
		} else {
			a := mainAttrPool[rng.Intn(len(mainAttrPool))]
			g.AddVertex(poolValue(a, rng.Intn(4)))
		}
	}
	if nNoise > 0 {
		nEdges := rng.Intn(2 * nNoise)
		labels := append(append([]string{}, ms.Attrs...), junkEdgePool...)
		for i := 0; i < nEdges; i++ {
			from := graph.VID(noiseStart + rng.Intn(nNoise))
			to := graph.VID(rng.Intn(g.NumVertices()))
			g.MustAddEdge(from, to, labels[rng.Intn(len(labels))])
		}
	}

	// ---- Parameters ------------------------------------------------------
	// k must exceed the widest tuple fan-out (key + attrs + FK) so top-k
	// truncation never drops a mirrored property.
	k := len(attrs) + 1 + rng.Intn(3)
	w.MaxLen = 3 + rng.Intn(2)
	if rng.Float64() < 0.7 {
		w.Name = fmt.Sprintf("planted/exact seed=%d", seed)
		w.Params = core.Params{Mv: ExactMv, Mrho: ExactMrho, Sigma: 1, Delta: 0.5, K: k}
	} else {
		w.Name = fmt.Sprintf("planted/graded seed=%d", seed)
		w.Params = core.Params{Mv: LevMv, Mrho: JaccardMrho, Sigma: 0.82, Delta: 0.5, K: k}
	}

	// Sources: every tuple vertex of G_D (main and dimension relations).
	for _, relName := range db.RelationNames() {
		r := db.Relation(relName)
		for _, t := range r.Tuples {
			if ut, ok := mapping.VertexOf(relName, t.ID); ok {
				w.Sources = append(w.Sources, ut)
			}
		}
	}
	return w, nil
}

// GenGraphWorkload generates the adversarial graph-pair workload for
// seed: two small dense random graphs over tiny label pools (rich in
// cycles, shared labels and cross-fragment dependencies), queried from
// every G_D vertex. There is no relational side and no planted truth —
// these workloads exist purely to make the implementations disagree if
// the cache/cleanup/border-refinement logic has an order dependence.
func GenGraphWorkload(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"P", "Q", "R", "S", "T"}[:3+rng.Intn(3)]
	edgeLabels := []string{"x", "y", "z"}[:2+rng.Intn(2)]

	random := func(nv, ne int) *graph.Graph {
		g := graph.New()
		for i := 0; i < nv; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for i := 0; i < ne; i++ {
			g.MustAddEdge(graph.VID(rng.Intn(nv)), graph.VID(rng.Intn(nv)),
				edgeLabels[rng.Intn(len(edgeLabels))])
		}
		return g
	}
	nv := 4 + rng.Intn(9)
	gd := random(nv, rng.Intn(5*nv/2))
	g := random(nv, rng.Intn(5*nv/2))

	w := &Workload{Seed: seed, GD: gd, G: g, MaxLen: 2 + rng.Intn(2)}
	delta := []float64{0.3, 0.5, 1.0}[rng.Intn(3)]
	k := 2 + rng.Intn(2)
	if rng.Float64() < 0.7 {
		w.Name = fmt.Sprintf("graphpair/exact seed=%d", seed)
		w.Params = core.Params{Mv: ExactMv, Mrho: ExactMrho, Sigma: 1, Delta: delta, K: k}
	} else {
		w.Name = fmt.Sprintf("graphpair/graded seed=%d", seed)
		w.Params = core.Params{Mv: LevMv, Mrho: JaccardMrho, Sigma: 0.7, Delta: delta, K: k}
	}
	return w, nil
}

// WidenedDraws is the number of instances GenWidenedWorkloads draws per
// seed.
const WidenedDraws = 4

// GenWidenedWorkloads draws WidenedDraws instances from one seeded
// stream: bsp's TestStressEquality generator with |V| widened to 4–23.
// Edges fall uniformly, so self-loops and cycles on both sides are
// common, and the candidate lists of a pair often compete for the same
// G-side vertex — the instances on which a greedy lineage choice and the
// best injective one differ. Draw i of seed s is named
// "widened seed=s draw=i" and is reproduced by that pair alone.
func GenWidenedWorkloads(seed int64) []*Workload {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"P", "Q", "R", "S"}
	edgeLabels := []string{"x", "y", "z"}
	random := func(nv, ne int) *graph.Graph {
		g := graph.New()
		for i := 0; i < nv; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for i := 0; i < ne; i++ {
			g.MustAddEdge(graph.VID(rng.Intn(nv)), graph.VID(rng.Intn(nv)),
				edgeLabels[rng.Intn(len(edgeLabels))])
		}
		return g
	}
	ws := make([]*Workload, WidenedDraws)
	for i := range ws {
		nv := 4 + rng.Intn(20)
		ne := rng.Intn(3 * nv)
		gd := random(nv, ne)
		g := random(nv, ne)
		delta := []float64{0.3, 0.5, 1.0}[rng.Intn(3)]
		ws[i] = &Workload{
			Seed:   seed,
			Name:   fmt.Sprintf("widened seed=%d draw=%d", seed, i),
			GD:     gd,
			G:      g,
			Params: core.Params{Mv: ExactMv, Mrho: ExactMrho, Sigma: 1, Delta: delta, K: 3},
			MaxLen: 3,
		}
	}
	return ws
}
