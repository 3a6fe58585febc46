package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"her/internal/core"
	"her/internal/graph"
)

// TestResultCacheSecondChance: CLOCK eviction passes over an entry read
// since the hand last came by — clearing its bit — and evicts the first
// one that was not; the spared entry goes at the next pass unless it is
// read again.
func TestResultCacheSecondChance(t *testing.T) {
	c := newResultCache(2)
	a, b, d, f := vpairRequest(1), vpairRequest(2), vpairRequest(3), vpairRequest(4)
	c.put(a, 1, nil)
	c.put(b, 1, nil)
	if _, ok := c.get(a, 1); !ok {
		t.Fatal("a missed")
	}
	c.put(d, 1, nil) // full: the hand spares a, evicts b
	if _, ok := c.get(b, 1); ok {
		t.Fatal("unreferenced b survived the eviction pass")
	}
	if _, ok := c.get(d, 1); !ok {
		t.Fatal("d missed right after its put")
	}
	// The pass cleared a's bit and a has not been read since; d has.
	c.put(f, 1, nil)
	if _, ok := c.get(a, 1); ok {
		t.Fatal("a kept a second chance it already used")
	}
	for _, r := range []request{d, f} {
		if _, ok := c.get(r, 1); !ok {
			t.Fatalf("%v evicted; a was the victim", r)
		}
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len %d at capacity 2", n)
	}
}

// TestResultCacheHitAfterAdvance: a sweep re-stamps a surviving entry to
// the new generation, so a get at that generation hits it — and a get
// still at the old one misses without dropping it.
func TestResultCacheHitAfterAdvance(t *testing.T) {
	c := newResultCache(4)
	req := vpairRequest(1)
	pairs := []core.Pair{{U: 1, V: 5}}
	c.put(req, 4, pairs)
	if survived, evicted := c.advance(5, func(request) bool { return false }); survived != 1 || evicted != 0 {
		t.Fatalf("advance(5) survived %d, evicted %d; want 1, 0", survived, evicted)
	}
	if _, ok := c.get(req, 4); ok {
		t.Fatal("a get at the old generation hit the re-stamped entry")
	}
	got, ok := c.get(req, 5)
	if !ok || len(got) != 1 || got[0] != pairs[0] {
		t.Fatalf("get at the advanced generation = %v, %v; want the entry", got, ok)
	}
}

// TestResultCacheStaleDropKeepsNewerEntry: a get that found an entry
// stale drops it under the lock — after a put may have replaced it. The
// drop removes only the entry the get saw, never the one put stored.
func TestResultCacheStaleDropKeepsNewerEntry(t *testing.T) {
	c := newResultCache(4)
	req := vpairRequest(1)
	c.put(req, 1, []core.Pair{{U: 1, V: 1}})
	v, _ := c.index.Load(req)
	stale := v.(*cacheEntry) // what a get at generation 2 loads, then finds stale
	c.put(req, 2, []core.Pair{{U: 1, V: 2}})
	c.dropStale(stale, 2)
	got, ok := c.get(req, 2)
	if !ok || len(got) != 1 || got[0].V != 2 {
		t.Fatalf("after the stale drop, get = %v, %v; want the entry put stored", got, ok)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len %d, want 1", n)
	}
}

// TestCachedVPairTakesNoEngineLock: once the state has reached the
// request's generation, a cached VPair is answered without the engine
// lock — here held for writing by the test for the whole call.
func TestCachedVPairTakesNoEngineLock(t *testing.T) {
	e, err := NewEngine(fixtureConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	all, err := e.APair(ctx, nil)
	if err != nil || len(all) == 0 {
		t.Fatalf("APair = %v, %v; the fixture must match something", all, err)
	}
	u := all[0].U
	want, err := e.VPair(ctx, u)
	if err != nil || len(want) == 0 {
		t.Fatalf("VPair(%d) = %v, %v; want its matches", u, want, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	done := make(chan []core.Pair, 1)
	go func() {
		got, err := e.VPair(ctx, u)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	select {
	case got := <-done:
		if len(got) != len(want) {
			t.Fatalf("cached VPair = %v, want %v", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cached VPair waited for the engine lock")
	}
}

// TestResultCacheConcurrent drives lock-free gets against puts, stale
// drops, CLOCK evictions and sweeps from several goroutines (meaningful
// under -race): a hit must return pairs stored for its own request at
// its generation or — re-stamped by a sweep — an earlier one, and the
// cache must never exceed its capacity.
func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(8)
	var gen atomic.Uint64
	gen.Store(1)
	pairsOf := func(u graph.VID, g uint64) []core.Pair {
		return []core.Pair{{U: u, V: graph.VID(g)}}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				u := graph.VID((n*7 + w) % 16)
				g := gen.Load()
				if got, ok := c.get(vpairRequest(u), g); ok {
					if len(got) != 1 || got[0].U != u || uint64(got[0].V) > g {
						t.Errorf("get(%d, %d) = %v", u, g, got)
						return
					}
					continue
				}
				c.put(vpairRequest(u), g, pairsOf(u, g))
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		if n := c.len(); n > 8 {
			t.Fatalf("len %d over capacity 8", n)
		}
		if i%3 != 0 { // else a reset: every entry goes stale
			c.advance(gen.Load()+1, func(r request) bool { return r.u%2 == 0 })
		}
		gen.Add(1)
	}
	close(stop)
	wg.Wait()
}
