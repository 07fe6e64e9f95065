#!/bin/sh
# Tier-1 gate: build, vet, formatting, the race-enabled test suite, the
# differentials and the smokes. Run before every commit.
#
# Usage: ./check.sh [step ...]
# With no step it runs every step below in this order. CI runs build,
# vet, gofmt and race as its first step and each other step as its own
# named step, so a failing check names itself.
set -eu

cd "$(dirname "$0")"

steps="build vet perfbench gofmt engine rng replay race campaign experiments trustmon fleet"

step_build() {
    echo "== go build =="
    go build ./...
}

step_vet() {
    echo "== go vet =="
    go vet ./...
}

step_perfbench() {
    echo "== perfbench module (vet, tests) =="
    # perfbench is its own module, so the root build, vet and test never
    # compile it: an exported name it calls could vanish with the rest of
    # the gate green.
    (cd perfbench && go vet ./... && go test ./...)
}

step_gofmt() {
    echo "== gofmt =="
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
}

step_engine() {
    echo "== engine differential (wide vs compiled vs reference, S-box toggle profile) =="
    go test -run 'Differential|CompiledVsReference|Wide|SBoxToggleCharge' -count=1 ./internal/logic/ ./internal/aes/
}

step_rng() {
    echo "== RNG stream differential (frand vs math/rand, fast path vs fallback, one generator type) =="
    go test -run 'MatchesMathRand|Bulk|Parity|OnlyFrandImportsMathRand' -count=1 ./internal/frand/ ./internal/trace/ ./internal/degrade/ .
}

step_replay() {
    echo "== capture replay differential (batch lanes, chain, fixed-point slot, caches, cross-seed capture sets, array emf slot, flux lanes) =="
    go test -run 'Batch|Chain|FixedPoint|Memo|Cache|ScanFrame|FluxLane' -count=1 ./internal/chip/ ./internal/sensorarray/ ./internal/power/ ./internal/experiments/
}

step_race() {
    echo "== go test -race -shuffle=on =="
    go test -race -shuffle=on ./...
}

step_campaign() {
    echo "== campaign smoke (generate, search, export) =="
    # Tiny 8-Trojan campaign with a 2-generation search; cmd/netlist exits
    # nonzero if the search finds no partial-trigger coverage at all.
    go run ./cmd/netlist -campaign 8 -member 1 -search 2 -stats=false -verilog /dev/null >/dev/null
}

step_experiments() {
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
}

step_trustmon() {
    echo "== trustmon single-die smoke (verdict loop on a healthy and a degraded channel, count-flag check) =="
    # The single-die demo evaluates each trace in its own capture loop; no
    # test drives that loop, so run it plain and with injected faults and
    # check the verdict stream: 12 verdict lines, then the summary. Then
    # a negative count flag must be a usage error (exit 2), not a panic.
    # go run reports any failing program as exit status 1, so run a
    # built binary to see its own exit code.
    dir="$(mktemp -d)"
    go build -o "$dir/trustmon" ./cmd/trustmon
    failed=""
    for flags in "" "-inject 2"; do
        # $flags is split on purpose: "" adds no argument.
        if ! out="$("$dir/trustmon" -traces 12 -golden 10 $flags 2>/dev/null)"; then
            failed="trustmon -traces 12 -golden 10 $flags exited nonzero"
            break
        fi
        verdicts="$(printf '%s\n' "$out" | grep -cE '^trace [0-9]+:' || true)"
        last="$(printf '%s\n' "$out" | tail -n 1)"
        if [ "$verdicts" != 12 ] || [ "${last#monitored 12 traces}" = "$last" ]; then
            failed="trustmon $flags: $verdicts verdict lines, last line: $last"
            break
        fi
    done
    if [ -z "$failed" ]; then
        code=0
        out="$("$dir/trustmon" -golden -1 2>&1)" || code=$?
        if [ "$code" != 2 ] || printf '%s\n' "$out" | grep -q panic; then
            failed="trustmon -golden -1: exit $code, want 2 without a panic; output: $out"
        fi
    fi
    rm -rf "$dir"
    if [ -n "$failed" ]; then
        echo "$failed" >&2
        exit 1
    fi
}

step_fleet() {
    echo "== fleet smoke (enroll, sharded ticking, aggregation, drain on the deadline) =="
    # A panic in any worker or a failed drain exits nonzero.
    go run ./cmd/trustmon -fleet -dies 64 -duration 2s
}

# Reject unknown names before running anything.
for step in "$@"; do
    case " $steps " in
    *" $step "*) ;;
    *)
        echo "check.sh: unknown step '$step' (steps: $steps)" >&2
        exit 2
        ;;
    esac
done

if [ $# -eq 0 ]; then
    # $steps is split on purpose: one argument per step.
    set -- $steps
    summary="all checks passed"
else
    summary="checks passed: $*"
fi
for step in "$@"; do
    "step_$step"
done
echo "$summary"
