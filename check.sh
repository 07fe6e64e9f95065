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

echo "== engine differential (wide vs compiled vs reference, S-box toggle profile) =="
go test -run 'Differential|CompiledVsReference|Wide|SBoxToggleCharge' -count=1 ./internal/logic/ ./internal/aes/

echo "== RNG stream differential (frand vs math/rand, fast path vs fallback, one generator type) =="
go test -run 'MatchesMathRand|Bulk|Parity|OnlyFrandImportsMathRand' -count=1 ./internal/frand/ ./internal/trace/ ./internal/degrade/ .

echo "== capture replay differential (batch, chain, fixed-point slot, caches, cross-seed capture sets, array emf slot, flux lanes) =="
go test -run 'Batch|Chain|FixedPoint|Memo|Cache|ScanFrame|FluxLane' -count=1 ./internal/chip/ ./internal/sensorarray/ ./internal/power/ ./internal/experiments/

echo "== go test -race -shuffle=on =="
go test -race -shuffle=on ./...

echo "== campaign smoke (generate, search, export) =="
# Tiny 8-Trojan campaign with a 2-generation search; cmd/netlist exits
# nonzero if the search finds no partial-trigger coverage at all.
go run ./cmd/netlist -campaign 8 -member 1 -search 2 -stats=false -verilog /dev/null >/dev/null

echo "== experiments CLI smoke (results rendered to an HTML page) =="
# The CLI hands the results it printed to the HTML renderer; no test
# drives that path, so run one experiment and check its page.
page="$(mktemp)"
go run ./cmd/experiments -run a2-spectrum -html "$page" >/dev/null
for want in 'Figure 4' '<svg'; do
    if ! grep -q "$want" "$page"; then
        echo "experiments -html page lacks $want" >&2
        rm -f "$page"
        exit 1
    fi
done
rm -f "$page"

echo "all checks passed"
