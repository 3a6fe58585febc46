package shard

import (
	"sync"
	"sync/atomic"

	"her/internal/core"
)

// resultCache is the generation-stamped result cache fronting the
// router. Merged match sets are stored under the request that produced
// them, together with the mutation generation they were computed at.
// A lookup whose stored generation differs from the caller's misses
// (dropping the entry only when it is older — a concurrent sweep may
// already have advanced it past a request that captured its generation
// earlier). Incremental updates no longer wipe the cache: the engine's
// delta sweep (advance) re-stamps unaffected entries to the new
// generation and evicts only the ones whose request's vertices fall
// inside an affected halo region. Non-incremental changes (feedback, retraining)
// skip the sweep, so every entry goes stale and is dropped lazily.
//
// A hit takes no lock. Entries are immutable apart from two atomics —
// the generation a sweep re-stamps and the CLOCK reference bit a hit
// sets — and readers reach them through index, which loads without
// mu. Everything that adds or removes an entry (put, advance, the
// stale drop) holds mu, which keeps index and ring in step. Eviction is
// CLOCK (second chance): the hand sweeps ring, clearing set reference
// bits, and evicts the first entry not used since the hand last passed
// it — LRU's effect, without a list splice on every read.
//
// A nil *resultCache is a valid "disabled" cache: get always misses and
// put is a no-op (the obs nil-safety idiom).
type resultCache struct {
	// index maps a request to its *cacheEntry. Loads take no lock;
	// stores and deletes hold mu.
	index sync.Map

	mu   sync.Mutex
	cap  int
	ring []*cacheEntry // guarded by mu — the CLOCK's slots; nil = free
	free []int         // guarded by mu — indexes of the nil slots in ring
	hand int           // guarded by mu — the next slot the CLOCK inspects
}

// cacheEntry is one cached match set. req, pairs and slot never change
// once the entry is stored (a put for the same request stores a new
// entry in the same slot); gen and ref are its only mutable state.
type cacheEntry struct {
	req   request
	pairs []core.Pair
	slot  int // its index in ring
	gen   atomic.Uint64
	ref   atomic.Bool // read since the CLOCK hand last passed it
}

// newResultCache creates a cache holding at most capacity entries;
// capacity <= 0 returns the disabled nil cache.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{cap: capacity}
}

// get returns a copy of the match set stored for req at generation
// gen. An entry from an older generation is stale: it misses and is
// evicted eagerly. An entry from a NEWER generation also misses for
// this caller (whose request pre-dates the mutation) but stays — a
// delta sweep legitimately advanced it, and the next current-generation
// request should still hit it.
func (c *resultCache) get(req request, gen uint64) ([]core.Pair, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.index.Load(req)
	if !ok {
		return nil, false
	}
	e := v.(*cacheEntry)
	if g := e.gen.Load(); g != gen {
		if g < gen {
			c.dropStale(e, gen)
		}
		return nil, false
	}
	// Set the bit only when it is clear: a hot entry's cache line is then
	// read by every hit and written once per pass of the hand.
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	out := make([]core.Pair, len(e.pairs))
	copy(out, e.pairs)
	return out, true
}

// dropStale evicts e, which a get at generation gen found stale — unless
// it is gone or was re-stamped since, or put replaced it: the drop
// removes only the entry it saw.
func (c *resultCache) dropStale(e *cacheEntry, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring[e.slot] == e && e.gen.Load() < gen {
		c.removeLocked(e)
	}
}

// removeLocked takes e out of index and ring. Callers hold c.mu and
// have checked that e is the entry in its slot.
func (c *resultCache) removeLocked(e *cacheEntry) {
	c.index.Delete(e.req)
	c.ring[e.slot] = nil
	c.free = append(c.free, e.slot)
}

// put stores a copy of pairs for req at generation gen, evicting by
// CLOCK when the cache is full. A newer entry already present (a sweep
// advanced it while this result was being computed) is left alone.
func (c *resultCache) put(req request, gen uint64, pairs []core.Pair) {
	if c == nil {
		return
	}
	e := &cacheEntry{req: req, pairs: make([]core.Pair, len(pairs))}
	copy(e.pairs, pairs)
	e.gen.Store(gen)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.index.Load(req); ok {
		old := v.(*cacheEntry)
		if old.gen.Load() > gen {
			return
		}
		e.slot = old.slot
	} else {
		e.slot = c.slotLocked()
	}
	c.ring[e.slot] = e
	c.index.Store(req, e)
}

// slotLocked returns a free slot of ring: a freed one, a new one while
// the ring is below capacity, else the slot of the CLOCK's victim, which
// it evicts. Callers hold c.mu.
func (c *resultCache) slotLocked() int {
	if n := len(c.free); n > 0 {
		slot := c.free[n-1]
		c.free = c.free[:n-1]
		return slot
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, nil)
		return len(c.ring) - 1
	}
	for {
		slot := c.hand
		c.hand = (c.hand + 1) % len(c.ring)
		e := c.ring[slot]
		if e.ref.Load() {
			e.ref.Store(false) // second chance
			continue
		}
		c.index.Delete(e.req)
		return slot
	}
}

// advance is the vertex-scoped invalidation sweep: it walks every live
// entry, evicts the ones the current delta affects (plus strays from
// generations older than to-1, which could never be re-validated), and
// re-stamps the survivors to generation to. It returns how many
// entries survived and how many were evicted.
func (c *resultCache) advance(to uint64, affects func(request) bool) (survived, evicted int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.ring {
		if e == nil {
			continue
		}
		if e.gen.Load() != to-1 || affects(e.req) {
			c.removeLocked(e)
			evicted++
		} else {
			e.gen.Store(to)
			survived++
		}
	}
	return survived, evicted
}

// len reports the number of live entries (stale ones included until
// their next lookup).
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring) - len(c.free)
}

// inflight deduplicates concurrent identical requests singleflight
// style: the first caller of a (request, generation) becomes the leader
// and computes; followers block on the call's done channel and share the
// leader's result. Keys are generation-scoped so a request racing a
// mutation never latches onto a stale computation.
type inflight struct {
	mu    sync.Mutex
	calls map[sfKey]*call // guarded by mu
}

type sfKey struct {
	req request
	gen uint64
}

type call struct {
	done  chan struct{}
	pairs []core.Pair
	err   error
	// retry, set by abandon, tells followers the leader quit on its own
	// context without producing a shared result: loop back and re-join
	// instead of inheriting an error that was never theirs.
	retry bool
}

func newInflight() *inflight {
	return &inflight{calls: make(map[sfKey]*call)}
}

// join registers interest in (req, gen). The first caller gets
// leader=true and must eventually call finish; followers receive the
// leader's call handle and wait on its done channel.
func (f *inflight) join(req request, gen uint64) (leader bool, c *call) {
	k := sfKey{req: req, gen: gen}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[k]; ok {
		return false, c
	}
	c = &call{done: make(chan struct{})}
	f.calls[k] = c
	return true, c
}

// finish publishes the leader's result to every follower and retires
// the call.
func (f *inflight) finish(req request, gen uint64, c *call, pairs []core.Pair, err error) {
	c.pairs, c.err = pairs, err
	f.mu.Lock()
	delete(f.calls, sfKey{req: req, gen: gen})
	f.mu.Unlock()
	close(c.done)
}

// abandon retires the call without publishing a result: the leader's own
// context died (cancel or deadline), which says nothing about the
// followers' budgets. The key is removed so the next join — including a
// follower waking from this call — elects a fresh leader.
func (f *inflight) abandon(req request, gen uint64, c *call) {
	c.retry = true
	f.mu.Lock()
	delete(f.calls, sfKey{req: req, gen: gen})
	f.mu.Unlock()
	close(c.done)
}
