#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
# Run it from the repository root.  The build cache, the binary, the
# coordinator WALs and the span dumps all stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
