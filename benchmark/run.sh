#!/usr/bin/env bash
# run.sh is BENCHMARK.json's command: it builds the benchmark (and with
# it the HER packages it links) from the checkout's sources, then runs
# it with the arguments it was given. Everything the build writes — the
# binary, Go's build cache, its scratch and configuration directories —
# stays under .bench_build/ in the directory it is run from.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out/tmp"
(
    cd "$here"
    GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
        GOTOOLCHAIN=local GOFLAGS=-mod=readonly go build -o "$out/herbenchmark" .
)
exec "$out/herbenchmark" "$@"
