package core

import (
	"time"

	"her/internal/obs"
)

// coreMetrics holds the matcher's registry handles. All fields are
// nil-safe obs handles, so the zero value is the disabled state: every
// recording call on it is a no-op behind a single nil check, and timer
// sites additionally skip the clock reads entirely.
type coreMetrics struct {
	calls     *obs.Counter // her_core_paramatch_calls_total
	cacheHits *obs.Counter // her_core_cache_hits_total
	cleanups  *obs.Counter // her_core_cleanups_total

	candidates *obs.Counter // her_core_candidates_total

	matchSeconds   *obs.Histogram // her_core_paramatch_seconds
	candGenSeconds *obs.Histogram // her_core_candgen_seconds
}

// SetMetrics points the matcher at a registry (nil disables
// instrumentation). The phase breakdown mirrors Fig. 4: top-level
// ParaMatch latency, candidate generation latency, and the
// cache-hit and cleanup counters of the matching and cleanup stages
// (rechecks are counted in Counters only). Safe to call on a live
// matcher; existing Counters are unaffected.
func (m *Matcher) SetMetrics(r *obs.Registry) {
	if r == nil {
		m.met = coreMetrics{}
		return
	}
	m.met = coreMetrics{
		calls:          r.Counter("her_core_paramatch_calls_total"),
		cacheHits:      r.Counter("her_core_cache_hits_total"),
		cleanups:       r.Counter("her_core_cleanups_total"),
		candidates:     r.Counter("her_core_candidates_total"),
		matchSeconds:   r.Histogram("her_core_paramatch_seconds", nil),
		candGenSeconds: r.Histogram("her_core_candgen_seconds", nil),
	}
}

// timedMatch wraps a top-level match evaluation with the phase timer.
func (m *Matcher) timedMatch(p Pair) bool {
	if m.met.matchSeconds == nil {
		return m.match(p)
	}
	t0 := time.Now()
	ok := m.match(p)
	m.met.matchSeconds.ObserveSince(t0)
	return ok
}
