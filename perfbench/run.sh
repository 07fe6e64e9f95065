#!/usr/bin/env bash
# Builds the benchmark harness from source into .bench_build at the root
# of the checkout and runs it; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and binary all stay under
# .bench_build, so the first run in a fresh checkout also compiles the
# standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
