package bsp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"her/internal/core"
	"her/internal/graph"
)

// RunAsync computes Π like Run, but without superstep barriers — the
// paper's Section VI-B remark 1: "PAllMatch can work asynchronously...
// under the adaptive asynchronous parallel model". Workers exchange the
// same two message kinds (evaluation requests for assumed border pairs,
// invalidations of pairs that flipped to false) through per-worker
// mailboxes and process them as they arrive; the run terminates when
// every worker is idle and no message is in flight (quiescence detected
// by an in-flight counter).
func (e *Engine) RunAsync(sources []graph.VID, gen core.CandidateGen, cfg Config) ([]core.Pair, Stats, error) {
	n := cfg.Workers
	if n < 1 {
		return nil, Stats{}, fmt.Errorf("bsp: Workers must be ≥ 1, got %d", n)
	}
	runStart := time.Now()
	met := e.metrics("async")
	part, err := graph.PartitionEdgeCutSCC(e.G, n)
	if err != nil {
		return nil, Stats{}, err
	}

	ws := make([]*asyncWorker, n)
	// pending counts initial phases plus in-flight messages; when it
	// reaches zero no work exists and none can be created.
	var pending, requests, invalidations atomic.Int64
	pending.Store(int64(n))
	done := make(chan struct{})
	var once sync.Once
	decr := func() {
		if pending.Add(-1) == 0 {
			once.Do(func() { close(done) })
		}
	}

	ms := make([]*core.Matcher, n)
	for i := 0; i < n; i++ {
		m, err := core.NewMatcher(e.GD, e.G, e.RD, e.RG, e.P)
		if err != nil {
			return nil, Stats{}, err
		}
		ms[i] = m
		m.EnableReadTracking()
		m.SetMetrics(e.Metrics)
		w := &asyncWorker{id: i, m: m, subs: make(map[core.Pair]map[int]bool)}
		w.box.cond = sync.NewCond(&w.box.mu)
		w.owns = func(v graph.VID) bool { return part.Of[v] == w.id }
		ws[i] = w
	}
	send := func(to int, msg asyncMsg) {
		pending.Add(1)
		switch msg.kind {
		case msgRequest:
			requests.Add(1)
			met.requests.Inc()
		case msgRevalid:
			invalidations.Add(1)
			met.revalid.Inc()
		default:
			invalidations.Add(1)
			met.invalid.Inc()
		}
		ws[to].box.push(msg)
	}
	for i := 0; i < n; i++ {
		w := ws[i]
		w.m.SetDelegate(func(p core.Pair) bool {
			if w.owns(p.V) {
				return false
			}
			if !w.m.IsAssumed(p) {
				send(part.Of[p.V], asyncMsg{p: p, from: w.id, kind: msgRequest})
			}
			return true
		})
		w.m.SetOnInvalid(func(p core.Pair) {
			if !w.owns(p.V) {
				return
			}
			for sub := range w.subs[p] {
				send(sub, asyncMsg{p: p, kind: msgInvalid})
			}
		})
		w.m.SetOnRevalid(func(p core.Pair) {
			if !w.owns(p.V) {
				return
			}
			for sub := range w.subs[p] {
				send(sub, asyncMsg{p: p, kind: msgRevalid})
			}
		})
		w.notifyLate = func(p core.Pair, to int) {
			send(to, asyncMsg{p: p, kind: msgInvalid})
		}
	}

	cands, stats := e.distribute(ms, sources, gen, part, met)
	for i, w := range ws {
		w.cands = cands[i]
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *asyncWorker) {
			defer wg.Done()
			// Initial phase: evaluate owned candidates.
			for _, p := range w.cands {
				if _, found := w.m.Cached(p); !found {
					w.m.Match(p.U, p.V)
				}
			}
			decr()
			// Message loop until quiescence.
			for {
				msg, ok := w.box.pop(done)
				if !ok {
					return
				}
				w.handle(msg)
				decr()
			}
		}(w)
	}
	<-done
	// Wake every worker blocked on its mailbox so they observe done.
	for _, w := range ws {
		w.box.wake()
	}
	wg.Wait()

	stats.Requests = int(requests.Load())
	stats.Invalidations = int(invalidations.Load())
	stats.Supersteps = 1 // asynchronous: a single logical round

	matches := union(&stats, ms, cands)
	stats.WallTime = time.Since(runStart)
	stats.SuperstepDurations = []time.Duration{stats.WallTime}
	met.superstep.Observe(stats.WallTime.Seconds())
	met.run.Observe(stats.WallTime.Seconds())
	return matches, stats, nil
}

type asyncMsg struct {
	p    core.Pair
	from int
	kind msgKind
}

type msgKind int

const (
	msgRequest msgKind = iota
	msgInvalid
	msgRevalid
)

// mailbox is an unbounded FIFO with condition-variable blocking, so a
// sender never deadlocks on a full channel.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []asyncMsg
}

func (b *mailbox) push(m asyncMsg) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// pop blocks until a message arrives or done closes.
func (b *mailbox) pop(done <-chan struct{}) (asyncMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 {
		select {
		case <-done:
			return asyncMsg{}, false
		default:
		}
		b.cond.Wait()
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	return m, true
}

func (b *mailbox) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

type asyncWorker struct {
	id    int
	m     *core.Matcher
	owns  func(graph.VID) bool
	cands []core.Pair
	subs  map[core.Pair]map[int]bool
	box   mailbox
	// notifyLate forwards an already-known invalidation to a subscriber
	// that asked after the pair was refuted; installed by RunAsync.
	notifyLate func(p core.Pair, to int)
}

// handle processes one incoming message: invalidations run the IncPSim
// cleanup; requests subscribe the asker and evaluate on demand, replying
// immediately when the pair is already known invalid.
func (w *asyncWorker) handle(msg asyncMsg) {
	switch msg.kind {
	case msgInvalid:
		w.m.Invalidate(msg.p)
		return
	case msgRevalid:
		w.m.Revalidate(msg.p)
		return
	}
	set := w.subs[msg.p]
	if set == nil {
		set = make(map[int]bool)
		w.subs[msg.p] = set
	}
	set[msg.from] = true
	if valid, found := w.m.Cached(msg.p); found {
		if !valid && w.notifyLate != nil {
			w.notifyLate(msg.p, msg.from)
		}
		return
	}
	w.m.Match(msg.p.U, msg.p.V)
}
