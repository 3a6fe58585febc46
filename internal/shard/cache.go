package shard

import (
	"container/list"
	"sync"

	"her/internal/core"
)

// resultCache is the generation-stamped LRU fronting the router. Merged
// match sets are stored under the request that produced them, together
// with the mutation generation they were computed at.
// A lookup whose stored generation differs from the caller's misses
// (dropping the entry only when it is older — a concurrent sweep may
// already have advanced it past a request that captured its generation
// earlier). Incremental updates no longer wipe the cache: the engine's
// delta sweep (advance) re-stamps unaffected entries to the new
// generation and evicts only the ones whose request's vertices fall
// inside an affected halo region. Non-incremental changes (feedback, retraining)
// skip the sweep, so every entry goes stale and is dropped lazily.
//
// A nil *resultCache is a valid "disabled" cache: get always misses and
// put is a no-op (the obs nil-safety idiom).
type resultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List                // guarded by mu — front = most recently used
	byReq map[request]*list.Element // guarded by mu
}

type cacheEntry struct {
	req   request
	gen   uint64
	pairs []core.Pair
}

// newResultCache creates a cache holding at most capacity entries;
// capacity <= 0 returns the disabled nil cache.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:   capacity,
		order: list.New(),
		byReq: make(map[request]*list.Element),
	}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byReq[req]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		if e.gen < gen {
			c.order.Remove(el)
			delete(c.byReq, req)
		}
		return nil, false
	}
	c.order.MoveToFront(el)
	out := make([]core.Pair, len(e.pairs))
	copy(out, e.pairs)
	return out, true
}

// put stores a copy of pairs for req at generation gen, evicting the
// least recently used entry when the cache is full. A newer entry already present (a sweep advanced it while
// this result was being computed) is left alone.
func (c *resultCache) put(req request, gen uint64, pairs []core.Pair) {
	if c == nil {
		return
	}
	stored := make([]core.Pair, len(pairs))
	copy(stored, pairs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byReq[req]; ok {
		e := el.Value.(*cacheEntry)
		if e.gen > gen {
			return
		}
		e.gen = gen
		e.pairs = stored
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byReq, oldest.Value.(*cacheEntry).req)
	}
	c.byReq[req] = c.order.PushFront(&cacheEntry{req: req, gen: gen, pairs: stored})
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
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.gen != to-1 || affects(e.req) {
			c.order.Remove(el)
			delete(c.byReq, e.req)
			evicted++
		} else {
			e.gen = to
			survived++
		}
		el = next
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
	return c.order.Len()
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
