// Package obs is the repository's observability substrate: a
// concurrent-safe registry of named counters, gauges and fixed-bucket
// latency histograms with Prometheus text exposition, plus lightweight
// span tracing (span.go). Everything is standard-library Go.
//
// The package is built around nil-safety: every method on a nil
// *Registry, *Counter, *Gauge or *Histogram is a no-op, so
// instrumentation sites hold possibly-nil handles and call them
// unconditionally. A System constructed without a registry pays one
// pointer comparison per event — effectively zero cost.
//
// Metric names follow the Prometheus convention and may carry inline
// labels, e.g.
//
//	r.Counter(`her_http_requests_total{endpoint="/vpair",status="200"}`)
//
// The exposition writer groups series of the same family (the name up
// to the first '{') under one # TYPE header.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; create
// one with NewRegistry. A nil *Registry is a valid "disabled" registry:
// every lookup returns a nil handle whose methods are no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// GobEncode and GobDecode make a *Registry gob-transparent. A registry
// is runtime state, not model state: structs that embed one (e.g.
// her.Options inside a persisted model file) must still be encodable,
// so it serializes to nothing and decodes to an empty registry.
func (r *Registry) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores nothing; see GobEncode.
func (r *Registry) GobDecode([]byte) error { return nil }

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (nil buckets means
// DefBuckets). The bounds must be sorted ascending; an implicit +Inf
// bucket is always appended. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(buckets)
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge with a CAS loop. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default latency buckets in seconds, spanning
// microsecond-scale cache hits to multi-second APair runs.
var DefBuckets = []float64{
	0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// TimeBuckets are the fine-grained latency buckets in seconds for the
// sharded serving path, whose cache hits and queue waits live between
// 1µs and 1ms — the sharded /vpair p99 is ~0.08ms, which DefBuckets
// resolves into only two buckets. The preset keeps sub-millisecond
// resolution (roughly 1-2.5-5 per decade from 1µs) and still reaches
// 10s so stragglers and cold paths land in real buckets too.
var TimeBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: one atomic add on the matching bucket plus CAS on the sum.
type Histogram struct {
	bounds []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	sum    Gauge
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records v. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short and the branch predictor
	// settles on the hot bucket; binary search costs more in practice.
	placed := false
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since t0. No-op on nil.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf total. Cumulative counts are what Prometheus exposes.
func (h *Histogram) snapshot() (bounds []float64, cumulative []int64, total int64) {
	cumulative = make([]int64, len(h.bounds))
	var run int64
	for i := range h.bounds {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return h.bounds, cumulative, run + h.inf.Load()
}
