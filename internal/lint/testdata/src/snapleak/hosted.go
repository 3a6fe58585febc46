package snapleak

import (
	"her/internal/lint/testdata/src/snapleak/graph"
	"her/internal/lint/testdata/src/snapleak/shard"
)

// ViewHandle mirrors her.ViewHandle, the hosted-view state: gd is
// extended in place under the system lock, exactly like System.GD.
type ViewHandle struct {
	sys *System
	gd  *graph.Graph
}

func badHostedLiteral(h *ViewHandle) shard.Config {
	return shard.Config{
		Live: h.gd, // want `live graph ViewHandle.gd escapes into shard state`
	}
}

func badHostedSnapshot(h *ViewHandle, c shard.Config) shard.Config {
	gd := h.gd
	c.Live = gd       // want `live graph ViewHandle.gd stored into shard field Live`
	c.Extra = h.sys.G // want `live graph System.G stored into shard field Extra`
	return c
}

// goodHostedSnapshot is the shape of the one real hand-off site,
// her.ViewHandle.ShardConfig's Snapshot hook: clones only.
func goodHostedSnapshot(h *ViewHandle, c shard.Config) shard.Config {
	c.Live, c.Extra = h.gd.Clone(), h.sys.G.Clone()
	return c
}
