#!/usr/bin/env bash
# check.sh is the tier-1 gate (see ROADMAP.md): formatting, vet, build,
# herlint (the project-specific static-analysis suite in internal/lint),
# the full test suite, the benchmark's own correctness checks, and the
# race detector in -short mode over the whole module. Run it before
# every commit; CI runs exactly this.
#
# The race run uses -short rather than the full suite because race
# instrumentation slows the training-heavy tests 10-20x — enough to trip
# Go's 10-minute per-package timeout on small machines. Every package is
# still covered: the heavy tests carry testing.Short() tiers, so -short
# keeps their fast paths while skipping the multi-minute training loops
# (which the non-race `go test ./...` above still runs in full).
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
    echo "check.sh: FAILED at stage: $1" >&2
    exit 1
}

# stage NAME CMD... runs CMD and prints its wall time, so any stage's
# cost regression shows up in the banner.
stage() {
    local name=$1
    shift
    local start
    start=$(date +%s)
    "$@" || fail "$name"
    echo "check.sh: stage '$name' passed in $(($(date +%s) - start))s"
}

gofmt_clean() {
    local unformatted
    unformatted=$(gofmt -l . 2>/dev/null || true)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

stage gofmt gofmt_clean
# vet's copylocks is what guards atomics against copies: every atomic in
# the module is a typed sync/atomic value, so a plain access does not
# compile and a struct copy that would fork one fails here.
stage "go vet" go vet ./...
stage "go build" go build ./...
# Self-lint: the full analyzer suite over the whole module, minus the
# committed baseline (each entry carries a written justification; a
# stale entry fails the run).
stage "herlint" go run ./cmd/herlint -baseline .herlint-baseline.json ./...
stage "go test" go test ./...
# The server layer's microbenchmarks (ns/op, B/op, allocs/op of a cached
# /vpair through ServeHTTP) are run by hand when measuring; one iteration
# here keeps them compiling and passing — at one and at two CPUs, the
# setting BenchmarkServeVPairHitParallel's parallel/serial ratio is read at.
stage "server benchmarks (1x)" go test -run '^$' -bench ServeVPairHit -benchtime 1x -cpu 1,2 ./internal/server
# Likewise the scoring kernel's and the matcher's (MvScore, Embed cold
# and warm, Match and VPair cold), M_ρ's (TrainBCE, Score) and
# PAllMatch's (Run, RunAsync at 1/2/4 workers): the numbers that say
# whether a hot path allocates are measured, not linted.
stage "embed/core benchmarks (1x)" go test -run '^$' -bench . -benchtime 1x ./internal/embed ./internal/core ./internal/nn ./internal/bsp
# The benchmark is its own module (benchmark/go.mod replaces `her` with
# ..), so ./... above never compiles it: vet and short-test it against
# the working tree here, or an API change that breaks it is first seen
# when the benchmark refuses to build.
benchmark_module() {
    (cd benchmark && go vet ./... && go test -short ./...)
}
stage "benchmark module" benchmark_module
# The smoke above runs 20 entities, too few to trip the invariants the
# benchmark checks at its real sizes (vpair_rw: no full rebuild of the
# direct engine; vpair_cold: the open phase keeps up), so a change that
# makes a workload incorrect would first be seen when the benchmark
# rejects it. Run each workload briefly at its real size; the last line
# a run prints is its JSON result, which must say "correct":true and
# "failed":0 — a run with failed operations is rejected like an incorrect
# one. Set CHECK_BENCH=0 to skip.
benchmark_correct() {
    local w last
    for w in vpair_cold vpair_hot apair_batch vpair_rw; do
        last=$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 4 --trace 0 | tail -n 1)
        grep -q '"correct":true' <<<"$last" || { echo "benchmark workload $w is not correct" >&2; return 1; }
        grep -q '"failed":0[,}]' <<<"$last" || { echo "benchmark workload $w failed operations: $last" >&2; return 1; }
    done
}
if [ "${CHECK_BENCH:-1}" != "0" ]; then
    stage "benchmark correct" benchmark_correct
fi
stage "go test -race -short" go test -race -short ./...
# The sharded serving engine is the most concurrency-dense code in the
# repo (per-shard workers, singleflight, a cache read without a lock,
# generation rebuilds), so it gets a full (non-short) race pass on top
# of the module-wide one.
stage "go test -race shard/server" go test -race ./internal/shard ./internal/server
# Readers against writers, repeated so that writes land on more
# interleavings: published scorers are immutable (TrainPathModel and
# Refine swap them whole while sharded serving and MrhoScore score), and
# every reader of the live graphs — Candidates, EvaluateWith,
# TrainRanker, SemanticJoin — is ordered with AddTuple and AddGraphEdge
# by the system lock or by a copy taken under it.
stage "go test -race readers/writers" go test -race -count=10 \
    -run '^Test(TrainRaceWithServing|CandidatesRaceWith(AddGraphEdge|AddTuple)|(EvaluateWith|TrainRanker|SemanticJoin)RaceWithWrites)$' .

# Tier-2: differential correctness and fuzz smokes. The differential
# suite re-runs internal/testkit with a widened seed sweep (the default
# 60-per-family run is already part of `go test ./...` above); the fuzz
# smokes give each Go-native fuzz target a bounded budget on top of the
# committed corpora. Tune with TESTKIT_SEEDS / CHECK_FUZZTIME; set
# CHECK_FUZZTIME=0 to skip fuzzing (e.g. on very slow machines).
testkit_differential() {
    TESTKIT_SEEDS="${TESTKIT_SEEDS:-150}" go test -count=1 ./internal/testkit
}
stage "testkit differential" testkit_differential

# Delta-differential: the mutation-sequence harness asserts the
# delta-maintained sharded engine stays byte-identical to a from-scratch
# sequential rebuild after every mutation prefix (1/2/4/8 shards,
# blocking on and off), plus the shard-level delta edge cases and the
# System-level end-to-end emission path.
stage "delta differential (testkit)" go test -count=1 -run 'TestMutationSequenceDifferential|FuzzMutationSequence' ./internal/testkit
stage "delta differential (shard)" go test -count=1 -run 'TestDelta' ./internal/shard
stage "delta differential (system)" go test -count=1 -run 'TestSystemDeltaDifferential|TestConcurrentMutateWhileServing' .

# View differential: the built-in direct view must stay byte-identical
# to rdb2rdf.Map (golden DB + generated schema sweep), incremental view
# maintenance must equal re-extraction from scratch after every
# mutation, and sharded serving over a non-direct view must equal the
# sequential matcher at 1/2/4/8 shards.
stage "view differential" go test -count=1 -run 'TestDirectViewDifferential|TestViewMutationDifferential|TestViewDeltaReplayDifferential|TestViewShardedDifferential' ./internal/testkit

# Serving smoke: boot the real herserve binary, issue one traced
# request, and assert the observability surface end to end — /metrics
# parses strictly and /debug/requests serves a well-formed span tree
# (see scripts/servesmoke). Set CHECK_SMOKE=0 to skip.
if [ "${CHECK_SMOKE:-1}" != "0" ]; then
    smokedir=$(mktemp -d)
    trap 'rm -rf "$smokedir"' EXIT
    stage "smoke build herserve" go build -o "$smokedir/herserve" ./cmd/herserve
    stage "serving smoke" go run ./scripts/servesmoke -herserve "$smokedir/herserve"
fi

fuzztime="${CHECK_FUZZTIME:-10s}"
if [ "$fuzztime" != "0" ]; then
    stage "fuzz FuzzReadTSV" go test -run='^$' -fuzz='^FuzzReadTSV$' -fuzztime="$fuzztime" ./internal/graph
    stage "fuzz FuzzReadCSV" go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime="$fuzztime" ./internal/relational
    stage "fuzz FuzzConvert" go test -run='^$' -fuzz='^FuzzConvert$' -fuzztime="$fuzztime" ./internal/json2graph
    stage "fuzz FuzzServeHTTP" go test -run='^$' -fuzz='^FuzzServeHTTP$' -fuzztime="$fuzztime" ./internal/server
    stage "fuzz FuzzVPairBody" go test -run='^$' -fuzz='^FuzzVPairBody$' -fuzztime="$fuzztime" ./internal/server
    stage "fuzz FuzzMutationSequence" go test -run='^$' -fuzz='^FuzzMutationSequence$' -fuzztime="$fuzztime" ./internal/testkit
    stage "fuzz FuzzViewRuleParse" go test -run='^$' -fuzz='^FuzzViewRuleParse$' -fuzztime="$fuzztime" ./internal/view
fi

echo "check.sh: all gates passed"
