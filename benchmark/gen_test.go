package main

import (
	"reflect"
	"testing"
)

// inputs is every generated op list of one seed.
func inputs(seed int64) []any {
	return []any{
		permutation(seed, 345),
		zipfSequence(seed, 0, 345, 4096),
		zipfSequence(seed, 1, 345, 4096),
		rwScript(seed, 115, 110, 130, 40),
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := inputs(7), inputs(7); !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different inputs")
	}
	a, b := inputs(7), inputs(8)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
	if c0, c1 := zipfSequence(7, 0, 345, 4096), zipfSequence(7, 1, 345, 4096); reflect.DeepEqual(c0, c1) {
		t.Error("two clients of one run follow the same key sequence")
	}
}

func TestRWScriptShape(t *testing.T) {
	const keys, mainTuples, entities, writes = 115, 110, 130, 40
	script := rwScript(7, keys, mainTuples, entities, writes)
	if len(script) != writes*(readsPerWrite+1) {
		t.Fatalf("%d ops, want %d", len(script), writes*(readsPerWrite+1))
	}
	count := map[opKind]int{}
	for i, s := range script {
		count[s.kind]++
		write := i%(readsPerWrite+1) == readsPerWrite
		if write != (s.kind == opAddTuple || s.kind == opAddEdge) {
			t.Fatalf("op %d has kind %d", i, s.kind)
		}
		switch s.kind {
		case opRead, opReadMirror:
			if s.a < 0 || s.a >= keys {
				t.Fatalf("op %d reads key %d", i, s.a)
			}
		case opAddTuple:
			if s.a < 0 || s.a >= mainTuples {
				t.Fatalf("op %d clones tuple %d", i, s.a)
			}
		case opAddEdge:
			if s.a == s.b || s.a < 0 || s.b < 0 || s.a >= entities || s.b >= entities {
				t.Fatalf("op %d links entities %d and %d", i, s.a, s.b)
			}
		}
	}
	if count[opAddEdge] != writes/edgeEvery || count[opAddTuple] != writes-writes/edgeEvery {
		t.Errorf("%d tuple and %d edge writes", count[opAddTuple], count[opAddEdge])
	}
	if got, want := count[opReadMirror], writes*(readsPerWrite/mirrorEvery); got != want {
		t.Errorf("%d mirror reads, want %d", got, want)
	}
}
