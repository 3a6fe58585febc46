package testkit

import (
	"context"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/shard"
)

// Sharded computes Π through the sharded serving engine at n shards:
// partition G, close each fragment under the halo radius, match per
// shard with a sequential matcher over owned candidates, merge. The
// result must be byte-identical (post SortPairs) to APair on the whole
// graph — that is the halo-replication correctness claim.
func (w *Workload) Sharded(n int) ([]core.Pair, error) {
	eng, err := shard.NewEngine(shard.Config{
		Source: func() shard.Inputs {
			return shard.Inputs{GD: w.GD.Copy(), G: w.G.Copy(), Params: w.Params, MaxPathLen: w.MaxLen}
		},
		Shards: n,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.APair(context.Background(), w.Sources)
}

// ShardedSPair asks the sharded engine at n shards — per-shard blocking
// indices on when minShared > 0 — for Engine.SPair of every pair, in
// order, so each verdict comes from whatever the owning worker's matcher
// has cached by then. verdicts, when non-nil, are user-verified pairs
// the engine reconciles through its Overrides hook the way her.System's
// does: a refuted pair is dropped, a confirmed one of the asked-about
// G_D vertex added.
func (w *Workload) ShardedSPair(n, minShared int, pairs []core.Pair, verdicts map[core.Pair]bool) ([]bool, error) {
	cfg := NewMutSeq(w, minShared).EngineConfig(n)
	if verdicts != nil {
		cfg.Overrides = func(matches []core.Pair, scope graph.VID) []core.Pair {
			out := matches[:0]
			for _, p := range matches {
				if keep, ok := verdicts[p]; !ok || keep {
					out = append(out, p)
				}
			}
			var added []core.Pair
			for p, confirmed := range verdicts {
				if confirmed && p.U == scope {
					added = append(added, p)
				}
			}
			return append(out, SortPairs(added)...)
		}
	}
	eng, err := shard.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		if out[i], err = eng.SPair(context.Background(), p.U, p.V); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ShardedVPairs asks one sharded engine at n shards, result cache off,
// for VPair of each vertex of order in turn, so every answer comes from
// the shard matchers' state as the earlier requests left it.
func (w *Workload) ShardedVPairs(n int, order []graph.VID) ([][]core.Pair, error) {
	cfg := NewMutSeq(w, 0).EngineConfig(n)
	cfg.CacheSize = -1
	eng, err := shard.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	out := make([][]core.Pair, len(order))
	for i, u := range order {
		if out[i], err = eng.VPair(context.Background(), u); err != nil {
			return nil, err
		}
	}
	return out, nil
}
