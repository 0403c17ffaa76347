#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. BENCHMARK.json names this script as the benchmark's command,
# run from the repository root:
#
#   bash benchmark/run.sh --workload sim_share_deep --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under .bench_build/ in the checkout; the benchmark's own files go under
# benchmark/out/. Nothing outside the checkout is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOWORK=off

# The Go build cache makes this a no-op when nothing changed; the first build
# in a fresh checkout compiles the standard library too.
(cd "$here" && go build -o "$build/benchmark" .)

cd "$root"
exec "$build/benchmark" "$@"
