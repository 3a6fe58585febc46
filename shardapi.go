package her

import (
	"her/internal/graph"
	"her/internal/shard"
)

// NoVertex is the invalid vertex id; pass it as the ApplyOverrides scope
// for APair-style (unscoped) match sets.
const NoVertex = graph.NoVertex

// ShardConfig assembles the configuration of a sharded serving engine
// (internal/shard) over this view:
//
//   - Source is the one hand-off: under the system lock it copies the
//     view's G_D and G (graph.Copy — the engine reads and grows its
//     graphs without that lock, so it never shares them with the live
//     ones AddTuple/AddGraphVertex/AddGraphEdge mutate under it) and
//     reads the language model, thresholds and the generation the
//     copies belong to. The engine calls it when it is built and at
//     every full rebuild;
//   - Generation ties the engine's result cache and maintenance trigger
//     to the view's mutation counter — AddTuple, AddGraphVertex,
//     AddGraphEdge, Refine, retraining and threshold changes all bump it;
//   - Deltas exposes the view's typed delta log: incremental updates
//     are replayed onto the engine's copies in place (halo-scoped
//     fragment updates, vertex-scoped cache invalidation); resets
//     (feedback, retraining, threshold changes, a rule view's
//     recompile) poison the log and force the full rebuild they require;
//   - Overrides routes every merged match set through the view's
//     user-verified verdicts, exactly like the sequential query paths.
func (h *ViewHandle) ShardConfig(shards int) shard.Config {
	s := h.sys
	return shard.Config{
		Source: func() shard.Inputs {
			s.mu.Lock()
			defer s.mu.Unlock()
			return shard.Inputs{
				GD:              h.gd.Copy(),
				G:               s.G.Copy(),
				LM:              s.lm,
				Params:          s.paramsLocked(),
				MaxPathLen:      s.opts.MaxPathLen,
				MinSharedTokens: minSharedTokens,
				Gen:             h.Generation(),
			}
		},
		Shards:     shards,
		Generation: h.Generation,
		Deltas:     h.deltas.Since,
		Overrides:  h.applyOverrides,
		Metrics:    s.Metrics(),
	}
}

// ShardConfig is the direct view's ViewHandle.ShardConfig.
func (s *System) ShardConfig(shards int) shard.Config { return s.direct.ShardConfig(shards) }
