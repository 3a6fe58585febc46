package bsp

import (
	"sync"
	"sync/atomic"
	"time"

	"her/internal/core"
	"her/internal/graph"
)

// RunAsync computes Π like Run, but without superstep barriers — the
// paper's Section VI-B remark 1: "PAllMatch can work asynchronously...
// under the adaptive asynchronous parallel model". The same workers send
// the same messages, which go through per-worker mailboxes and are
// handled as they arrive; the run ends when every worker is idle and no
// message is in flight (quiescence, detected by a pending counter).
// RunAsync ignores cfg.MaxSupersteps: a verdict turns false at most
// once, so each pair sends at most one request per worker and one
// invalidation per subscriber, which bounds the messages.
func (e *Engine) RunAsync(sources []graph.VID, gen core.CandidateGen, cfg Config) ([]core.Pair, Stats, error) {
	r, err := e.start("async", sources, gen, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	n := len(r.workers)
	boxes := make([]mailbox, n)
	for i := range boxes {
		boxes[i].cond = sync.NewCond(&boxes[i].mu)
	}
	// pending counts initial phases plus in-flight messages; when it
	// reaches zero no work exists and none can be created, so it reaches
	// zero once.
	var pending atomic.Int64
	pending.Store(int64(n))
	done := make(chan struct{})
	decr := func() {
		if pending.Add(-1) == 0 {
			close(done)
		}
	}
	r.post = func(msg message) {
		pending.Add(1)
		boxes[msg.to].push(msg)
	}

	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.evaluateOwn()
			decr()
			for {
				msg, ok := boxes[i].pop(done)
				if !ok {
					return
				}
				w.handle(msg)
				decr()
			}
		}()
	}
	<-done
	// Wake every worker blocked on its mailbox so they observe done.
	for i := range boxes {
		boxes[i].wake()
	}
	wg.Wait()

	r.stats.Supersteps = 1 // asynchronous: a single logical round
	matches := r.finish()
	r.stats.SuperstepDurations = []time.Duration{r.stats.WallTime}
	r.met.superstep.Observe(r.stats.WallTime.Seconds())
	return matches, r.stats, nil
}

// mailbox is an unbounded FIFO with condition-variable blocking, so a
// sender never deadlocks on a full channel.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func (b *mailbox) push(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// pop blocks until a message arrives or done closes.
func (b *mailbox) pop(done <-chan struct{}) (message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 {
		select {
		case <-done:
			return message{}, false
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
