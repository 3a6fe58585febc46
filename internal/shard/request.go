package shard

import (
	"encoding/binary"

	"her/internal/graph"
)

// request says what one call asks of the engine: which operation, over
// which G_D vertices, against which G vertex. It is a comparable value
// and the engine holds a request in no other form — it is the
// resultCache key, with the generation the singleflight key, the scope
// that delta sweeps (resultCache.advance) and the Overrides hook read,
// and the only request-describing argument a worker's compute step
// receives. A field that shapes the answer therefore shapes the key:
// there is no second representation to keep in step with it.
type request struct {
	op taskOp
	u  graph.VID // opVPair, opSPair: the G_D source vertex
	v  graph.VID // opSPair: the G target vertex (global id)
	// opAPair's source selection, carried exactly. all selects every
	// vertex of G_D (a nil slice, Matcher.APair's convention); otherwise
	// set holds the explicit selection in request order, 4 little-endian
	// bytes per VID — a string because a slice is not comparable. nil and
	// empty differ: all=false with set=="" selects nothing.
	all bool
	set string
}

type taskOp int

const (
	opVPair taskOp = iota
	opAPair
	opSPair
	// opBarrier is the quiesce sentinel (delta.go): workers acknowledge
	// it immediately, and FIFO order guarantees every earlier task —
	// including abandoned ones — has fully drained first.
	opBarrier
)

func vpairRequest(u graph.VID) request { return request{op: opVPair, u: u} }

func spairRequest(u, v graph.VID) request { return request{op: opSPair, u: u, v: v} }

// apairRequest packs a copy of sources, so a caller reusing its buffer
// cannot reach a cached key.
func apairRequest(sources []graph.VID) request {
	if sources == nil {
		return request{op: opAPair, all: true}
	}
	set := make([]byte, 0, 4*len(sources))
	for _, u := range sources {
		set = binary.LittleEndian.AppendUint32(set, uint32(u))
	}
	return request{op: opAPair, set: string(set)}
}

// sources unpacks an opAPair selection: nil for every vertex of G_D,
// else the explicit (possibly empty) list.
func (r request) sources() []graph.VID {
	if r.all {
		return nil
	}
	out := make([]graph.VID, len(r.set)/4)
	for i := range out {
		s := r.set[4*i:]
		out[i] = graph.VID(uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24)
	}
	return out
}

// overrideScope is the scope argument of the Config.Overrides hook: the
// G_D vertex a single-source request ranges over, graph.NoVertex for
// APair.
func (r request) overrideScope() graph.VID {
	if r.op == opAPair {
		return graph.NoVertex
	}
	return r.u
}
