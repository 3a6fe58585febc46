package server

import (
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"her"
)

// sink is a response writer that keeps what it is sent in memory it
// reuses, so that a measurement through ServeHTTP counts the server's
// allocations and not a recorder's.
type sink struct {
	h    http.Header
	code int
	body []byte
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.code = c }
func (s *sink) Write(p []byte) (int, error) {
	s.body = append(s.body, p...)
	return len(p), nil
}

func (s *sink) reset() {
	clear(s.h)
	s.code, s.body = http.StatusOK, s.body[:0]
}

// hitRequest builds a new request for a cached /vpair. The server sees
// a request object once — net/http makes one per request — so nothing
// measured here may be served from state left on a reused one.
func hitRequest(i int) *http.Request {
	target := "/vpair?rel=product&tuple=" + string(rune('0'+i%2))
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err)
	}
	return &http.Request{
		Method: http.MethodGet, URL: u, RequestURI: target,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody,
		Host: "bench.test", RemoteAddr: "192.0.2.1:1234",
	}
}

// hitServer is a two-shard server over the catalog whose result cache
// holds both tuples, set up as the benchmark's vpair_hot sets it up:
// flight recorder off, no registry on the system.
func hitServer(tb testing.TB) *Server {
	tb.Helper()
	sys, _, _, err := buildCatalog(her.Options{Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewSharded(sys, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	srv.Recorder = nil
	w := &sink{h: make(http.Header)}
	for i := 0; i < 2; i++ {
		w.reset()
		if srv.ServeHTTP(w, hitRequest(i)); w.code != http.StatusOK {
			tb.Fatalf("warming the cache: HTTP %d %s", w.code, w.body)
		}
	}
	return srv
}

// benchHits serves b.N cached /vpair requests through ServeHTTP from p
// goroutines, each request a new object built with the timer stopped —
// a chunk at a time, so memory stays bounded whatever b.N is.
func benchHits(b *testing.B, p int) {
	srv := hitServer(b)
	const chunk = 8192
	reqs := make([]*http.Request, 0, chunk)
	sinks := make([]*sink, p)
	for g := range sinks {
		sinks[g] = &sink{h: make(http.Header)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= len(reqs) {
		b.StopTimer()
		reqs = reqs[:0]
		for i := 0; i < chunk && i < left; i++ {
			reqs = append(reqs, hitRequest(i))
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for g := 0; g < p; g++ {
			wg.Add(1)
			go func(w *sink, g int) {
				defer wg.Done()
				for i := g; i < len(reqs); i += p {
					w.reset()
					if srv.ServeHTTP(w, reqs[i]); w.code != http.StatusOK {
						b.Errorf("HTTP %d %s", w.code, w.body)
						return
					}
				}
			}(sinks[g], g)
		}
		wg.Wait()
	}
}

// BenchmarkServeVPairHit is the server layer's microbenchmark: one
// cached /vpair through ServeHTTP, one client.
func BenchmarkServeVPairHit(b *testing.B) { benchHits(b, 1) }

// BenchmarkServeVPairHitParallel is the same from GOMAXPROCS clients at
// once, where what the requests share (registry atomics, cache index,
// pools) shows; run it at -cpu 1,2 for the parallel/serial ratio.
func BenchmarkServeVPairHitParallel(b *testing.B) { benchHits(b, runtime.GOMAXPROCS(0)) }

// hitAllocCeiling is the most allocations one cached /vpair may make
// inside ServeHTTP. It makes 1, inside Engine.VPair: the copy of the
// cached pairs (≈2 under the race detector, whose sync.Pool drops a
// quarter of what is put back). It made 40 before the hit path parsed,
// looked up and wrote once, and 2 while a hit still took the engine's
// read lease.
const hitAllocCeiling = 3

func TestServeVPairHitAllocs(t *testing.T) {
	srv := hitServer(t)
	const runs = 200
	reqs := make([]*http.Request, runs+1) // AllocsPerRun calls once more to warm up
	for i := range reqs {
		reqs[i] = hitRequest(i)
	}
	w := &sink{h: make(http.Header)}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		w.reset()
		srv.ServeHTTP(w, reqs[next])
		next++
	})
	t.Logf("%.1f allocations per cached /vpair", got)
	if w.code != http.StatusOK {
		t.Fatalf("HTTP %d %s", w.code, w.body)
	}
	if got > hitAllocCeiling {
		t.Errorf("%.1f allocations per cached /vpair, ceiling %d", got, hitAllocCeiling)
	}
}

// BenchmarkServeVPairHitStages times what ServeHTTP does for a cached
// /vpair one stage at a time, each as the handler runs it: the table in
// DESIGN.md §14 is this benchmark's output. The stages sum to less than
// BenchmarkServeVPairHit by the routing, the pooled exchange and the
// calls between them.
func BenchmarkServeVPairHitStages(b *testing.B) {
	srv := hitServer(b)
	req := hitRequest(0)
	x := exchanges.Get().(*exchange)
	w := &sink{h: make(http.Header)}
	x.ResponseWriter, x.ep = w, srv.routes["/vpair"]
	q := parseQuery(req.URL.RawQuery)
	vh, err := srv.sys.View(q.view)
	if err != nil {
		b.Fatal(err)
	}
	u, err := vh.TupleVertex("product", 0)
	if err != nil {
		b.Fatal(err)
	}
	eng, ctx := srv.Engine(), req.Context()
	matches, err := eng.VPair(ctx, u)
	if err != nil {
		b.Fatal(err)
	}
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"parse", func() {
			q := parseQuery(req.URL.RawQuery)
			if _, _, _, err := q.pair(false); err != nil {
				b.Fatal(err)
			}
			if _, cancel, err := srv.budget(ctx, &q); err != nil {
				b.Fatal(err)
			} else {
				cancel()
			}
		}},
		{"view", func() { _, _ = srv.sys.View(q.view) }},
		{"resolve", func() { _, _, _ = vh.Resolve("product", 0) }},
		{"engine", func() { _, _ = srv.engine(vh); _, _ = eng.VPair(ctx, u) }},
		{"render", func() {
			w.reset()
			srv.writeVPair(x, "product", 0, matches)
		}},
		{"metrics", func() { srv.record(x.ep, http.StatusOK, time.Now()) }},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stage.run()
			}
		})
	}
}
