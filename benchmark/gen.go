package main

import "math/rand"

// Everything the workloads feed the system is generated here from
// -seed alone, so the same seed replays the same inputs byte for byte.
// Each stream gets its own generator: adding a draw to one never shifts
// another.

// Stream ids for rngFor. Client streams are streamClient+c.
const (
	streamPerm    = 3
	streamHotKeys = 4
	streamScript  = 5
	streamCheck   = 6
	streamProbe   = 7
	streamClient  = 100
)

// rngFor is the generator of one input stream of a run.
func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// zipfS is the skew of every Zipf key sequence.
const zipfS = 1.1

// sequenceLen is how many keys a generated sequence holds; clients
// cycle through it when a run outlasts it.
const sequenceLen = 1 << 16

// permutation returns the n keys in a seeded random order: the
// vpair_cold request list, each key exactly once.
func permutation(seed int64, n int) []int {
	return rngFor(seed, streamPerm).Perm(n)
}

// zipfSequence returns one client's key sequence: Zipf(zipfS) ranks
// mapped through a seeded permutation shared by all clients of the run,
// so which keys are hot depends on the seed and not on key order.
func zipfSequence(seed int64, client, n, count int) []int {
	hot := rngFor(seed, streamHotKeys).Perm(n)
	z := rand.NewZipf(rngFor(seed, streamClient+client), zipfS, 1, uint64(n-1))
	out := make([]int, count)
	for i := range out {
		out[i] = hot[z.Uint64()]
	}
	return out
}

// The vpair_rw script: readsPerWrite Zipf reads, one in mirrorEvery of
// them addressed to the mirror view, then one write; every
// edgeEvery-th write is an AddGraphEdge, the others AddTuple.
const (
	readsPerWrite = 250
	mirrorEvery   = 4
	edgeEvery     = 5
)

type opKind uint8

const (
	opRead opKind = iota
	opReadMirror
	opAddTuple
	opAddEdge
)

// op is one step of the vpair_rw script. For reads a is the key; for
// opAddTuple a is the main-relation tuple to clone; for opAddEdge a and
// b index the dataset's entity vertices.
type op struct {
	kind opKind
	a, b int
}

// rwScript returns writes rounds of the vpair_rw script over keys keys,
// mainTuples cloneable tuples and entities entity vertices. The reads
// follow the seed; the writes are the same update stream in every run,
// because what one AddGraphEdge costs the readers after it depends on
// the pair it links (whether the shards can graft it in place or must
// rebuild a fragment), and a run applies too few to average that out:
// with seeded pairs throughput differed between seeds by 24 % of its
// median.
func rwScript(seed int64, keys, mainTuples, entities, writes int) []op {
	reads := zipfSequence(seed, 0, keys, writes*readsPerWrite)
	rng := rngFor(0, streamScript)
	out := make([]op, 0, writes*(readsPerWrite+1))
	for w := 0; w < writes; w++ {
		for i, k := range reads[w*readsPerWrite : (w+1)*readsPerWrite] {
			kind := opRead
			if i%mirrorEvery == mirrorEvery-1 {
				kind = opReadMirror
			}
			out = append(out, op{kind: kind, a: k})
		}
		if w%edgeEvery == edgeEvery-1 {
			a := rng.Intn(entities)
			b := rng.Intn(entities - 1)
			if b >= a {
				b++ // never a self loop
			}
			out = append(out, op{kind: opAddEdge, a: a, b: b})
		} else {
			out = append(out, op{kind: opAddTuple, a: rng.Intn(mainTuples)})
		}
	}
	return out
}
