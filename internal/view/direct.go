package view

import "her/internal/relational"

// DirectName is the reserved name of the built-in direct view — the
// W3C RDB2RDF direct mapping expressed in the rule language.
const DirectName = "direct"

// Direct builds the definition of the canonical direct mapping over
// db's schema: one vertex rule per relation (sorted name order, no
// predicate, relation-name labels, all attributes projected) and one
// single-step edge rule per declared foreign key (schema declaration
// order), labeled with the FK attribute name. It is how production
// extracts the direct graph: her.New compiles it, and ExtendTuple
// appends each new tuple to it. Compiling it reproduces rdb2rdf.Map
// byte for byte — graph and mapping alike — which the testkit
// differential gates pin on the golden database and on generated
// schemas, and extending it tuple by tuple does too, for as long as no
// new tuple resolves a reference that dangled.
func Direct(db *relational.Database) *Def {
	d := NewDef(DirectName)
	for _, relName := range db.RelationNames() {
		d.Vertex(relName).ProjectAll()
	}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, fk := range rel.Schema.ForeignKeys {
			d.Edge(fk.Attr, relName, fk.Attr)
		}
	}
	return d
}
