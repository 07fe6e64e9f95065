#!/bin/sh
# Tier-1 gate: build, vet, formatting, and the race-enabled test suite.
# Run before every commit; CI runs the same sequence.
set -eu

cd "$(dirname "$0")"

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== perfbench module (vet, tests) =="
# perfbench is its own module, so the root build, vet and test never
# compile it: an exported name it calls could vanish with the rest of
# the gate green.
(cd perfbench && go vet ./... && go test ./...)

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== engine differential (wide vs compiled vs reference) =="
go test -run 'Differential|CompiledVsReference|Wide' -count=1 ./internal/logic/...

echo "== RNG stream differential (bulk draws vs math/rand, fast path vs fallback) =="
go test -run 'MatchesMathRand|Bulk|Parity' -count=1 ./internal/frand/ ./internal/trace/ ./internal/degrade/

echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

echo "== campaign smoke (generate, search, export) =="
# Tiny 8-Trojan campaign with a 2-generation search; cmd/netlist exits
# nonzero if the search finds no partial-trigger coverage at all.
go run ./cmd/netlist -campaign 8 -member 1 -search 2 -stats=false -verilog /dev/null >/dev/null

echo "all checks passed"
