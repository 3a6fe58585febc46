package her

import (
	"her/internal/graph"
	"her/internal/ranking"
	"her/internal/shard"
)

// NoVertex is the invalid vertex id; pass it as the ApplyOverrides scope
// for APair-style (unscoped) match sets.
const NoVertex = graph.NoVertex

// ShardConfig assembles the configuration of a sharded serving engine
// (internal/shard) over this view:
//
//   - the Snapshot hook clones the graphs and re-reads the language
//     model and thresholds under the system lock: the engine reads its
//     graphs at request time without taking the system lock, so it must
//     never share them with the live G_D/G that
//     AddTuple/AddGraphVertex/AddGraphEdge mutate under that lock. The
//     returned Config is the hook's first output — the snapshot
//     shard.NewEngine builds its initial state from — and the engine
//     calls the hook again at every full rebuild, so each state serves
//     from private copies, with the ranker rebound to the cloned G_D; a
//     mutation publishes itself through the generation bump, which
//     advances or retires the snapshot on the next request;
//   - Generation ties the engine's result cache and maintenance trigger
//     to the view's mutation counter — AddTuple, AddGraphVertex,
//     AddGraphEdge, Refine, retraining and threshold changes all bump it;
//   - Deltas exposes the view's typed delta log: incremental updates
//     are applied to the engine's private snapshots in place (halo-scoped
//     fragment updates, vertex-scoped cache invalidation) instead of
//     re-cloning; resets (feedback, retraining, threshold changes, a
//     rule view's recompile) poison the log and force the full rebuild
//     they require;
//   - Overrides routes every merged match set through the view's
//     user-verified verdicts, exactly like the sequential query paths.
//
// The remaining shared components (scorers, language model) are safe for
// the engine's concurrent reads: scorers memoize behind RWMutexes and a
// retrained model is built aside and swapped in whole.
func (h *ViewHandle) ShardConfig(shards int) shard.Config {
	s := h.sys
	cfg := shard.Config{
		Shards:     shards,
		Generation: h.Generation,
		Deltas:     h.deltas.Since,
		Overrides:  h.applyOverrides,
		Metrics:    s.Metrics(),
	}
	cfg.Snapshot = func(c shard.Config) shard.Config {
		s.mu.Lock()
		defer s.mu.Unlock()
		c.GD, c.G = h.gd.Clone(), s.G.Clone()
		c.LM = s.lm
		c.RankerD = ranking.NewRanker(c.GD, s.lm, s.opts.MaxPathLen)
		c.Params = s.paramsLocked()
		c.MaxPathLen = s.opts.MaxPathLen
		c.MinSharedTokens = s.opts.MinSharedTokens
		// SnapGen anchors delta replay: it is read under the same lock
		// that serializes mutations, so the clones are exactly the graphs
		// of this generation — never a mid-request mix.
		c.SnapGen = h.Generation()
		return c
	}
	return cfg.Snapshot(cfg)
}

// ShardConfig is the direct view's ViewHandle.ShardConfig.
func (s *System) ShardConfig(shards int) shard.Config { return s.direct.ShardConfig(shards) }
