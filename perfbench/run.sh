#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build cache, binary, stores and span
# files all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out/work" "$@"
