#!/bin/sh
# Benchmark regression check, two tiers:
#
# 1. GATE (fails the build): a curated allowlist of stable benchmarks —
#    single-threaded, deterministic, sub-millisecond DSP and engine
#    kernels whose timings are reproducible across runs — is compared
#    against the newest committed BENCH_<n>.json snapshot. A regression
#    past the ns/op threshold (default 30%) or a >50% B/op growth (with
#    a 64 B/op absolute floor so 4->8 byte pool noise can't trip it)
#    exits nonzero.
#
# 2. TRIPWIRE (report-only): one short iteration of the heavyweight
#    end-to-end benchmarks (fleet verdict throughput). A slowdown past
#    the threshold prints a warning — GitHub-annotated when running in
#    Actions — but never fails the build: one-iteration timings of
#    second-long workloads are too noisy to gate on.
#
# Usage: ./bench_regression.sh [threshold-percent]   (default 30)
set -eu

threshold="${1:-30}"
bop_threshold=50
bop_floor=64

# Stable allowlist: keep this to kernels whose per-op time does not
# depend on parallelism, cache warm-up across iterations, or RNG-driven
# workload shape. Adding a benchmark here makes it a build gate.
stable='^(BenchmarkSpectralPlan|BenchmarkDieTick|BenchmarkEMFWeightedInto|BenchmarkTick/engine=compiled|BenchmarkTick/engine=reference)$'

prev=""
max=0
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in '' | *[!0-9]*) continue ;; esac
    if [ "$n" -gt "$max" ]; then
        max="$n"
        prev="$f"
    fi
done
if [ -z "$prev" ]; then
    echo "bench_regression: no BENCH_<n>.json snapshot found; nothing to compare"
    exit 0
fi

raw="$(mktemp)"
gate_raw="$(mktemp)"
trap 'rm -f "$raw" "$gate_raw"' EXIT

echo "== gate: stable benchmarks vs $prev (fail above +${threshold}% ns/op or +${bop_threshold}% B/op) =="
go test -run '^$' -bench 'BenchmarkSpectralPlan$|BenchmarkDieTick$|BenchmarkEMFWeightedInto$|BenchmarkTick$' \
    -benchmem -benchtime=0.3s . | tee "$gate_raw"

echo ""
awk -v prevfile="$prev" -v stable="$stable" \
    -v threshold="$threshold" -v bop_threshold="$bop_threshold" -v bop_floor="$bop_floor" \
    -v ci="${GITHUB_ACTIONS:-}" '
BEGIN {
    name = ""
    while ((getline line < prevfile) > 0) {
        if (line ~ /"name":/) {
            name = line
            sub(/^.*"name": "/, "", name)
            sub(/".*$/, "", name)
        } else if (line ~ /"ns_per_op":/ && name != "") {
            val = line
            sub(/^.*"ns_per_op": /, "", val)
            sub(/,.*$/, "", val)
            prevns[name] = val + 0
        } else if (line ~ /"B_per_op":/ && name != "") {
            val = line
            sub(/^.*"B_per_op": /, "", val)
            sub(/,.*$/, "", val)
            prevbop[name] = val + 0
            name = ""
        }
    }
    close(prevfile)
    failed = 0
    checked = 0
    printf "%-44s %12s %12s %8s  %s\n", "benchmark", "prev-ns/op", "ns/op", "delta", "status"
}
/^Benchmark/ {
    b = $1
    sub(/-[0-9]+$/, "", b)
    if (b !~ stable) next
    if (!(b in prevns) || prevns[b] == 0) {
        printf "%-44s %12s %12.0f %8s  new (no baseline)\n", b, "-", $3 + 0, "-"
        next
    }
    cur = $3 + 0
    if (cur == 0) next
    checked++
    status = "ok"
    pct = (cur - prevns[b]) / prevns[b] * 100
    if (pct > threshold) {
        status = sprintf("FAIL: ns/op +%.0f%%", pct)
        failed++
    }
    # B/op column, when -benchmem printed one.
    curbop = -1
    for (i = 4; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "B/op") curbop = $i + 0
    }
    if (curbop >= 0 && (b in prevbop)) {
        dbop = curbop - prevbop[b]
        if (dbop > bop_floor && prevbop[b] > 0 && dbop / prevbop[b] * 100 > bop_threshold) {
            sep = (status == "ok") ? "" : status "; "
            status = sprintf("%sFAIL: B/op %.0f -> %.0f", sep, prevbop[b], curbop)
            failed++
        }
    }
    if (status != "ok" && ci != "")
        printf "::error title=bench regression::%s regressed vs %s (%s)\n", b, prevfile, status
    printf "%-44s %12.0f %12.0f %+7.1f%%  %s\n", b, prevns[b], cur, pct, status
}
END {
    if (checked == 0) {
        print "no overlapping stable benchmarks between this run and " prevfile
    } else if (failed > 0) {
        printf "FAIL: %d stable benchmark(s) regressed past the gate\n", failed
        exit 1
    } else {
        print "gate clean"
    }
}
' "$gate_raw"

echo ""
echo "== tripwire: heavyweight benchmarks (report-only) =="
# One iteration only: BenchmarkFleetThroughput covers the monitoring hot
# path end to end but takes seconds per op, far too long to run at
# gate-quality iteration counts.
go test -run '^$' -bench 'BenchmarkFleetThroughput$' \
    -benchtime=1x . | tee "$raw"

echo ""
awk -v prevfile="$prev" -v threshold="$threshold" -v ci="${GITHUB_ACTIONS:-}" '
BEGIN {
    name = ""
    while ((getline line < prevfile) > 0) {
        if (line ~ /"name":/) {
            name = line
            sub(/^.*"name": "/, "", name)
            sub(/".*$/, "", name)
        } else if (line ~ /"ns_per_op":/ && name != "") {
            val = line
            sub(/^.*"ns_per_op": /, "", val)
            sub(/,.*$/, "", val)
            prevns[name] = val + 0
            name = ""
        }
    }
    close(prevfile)
    warned = 0
    checked = 0
}
/^Benchmark/ {
    b = $1
    sub(/-[0-9]+$/, "", b)
    if (!(b in prevns) || prevns[b] == 0) next
    cur = $3 + 0
    if (cur == 0) next
    checked++
    pct = (cur - prevns[b]) / prevns[b] * 100
    status = "ok"
    if (pct > threshold) {
        status = "SLOWER"
        warned++
        if (ci != "")
            printf "::warning title=bench tripwire::%s is %.0f%% slower than %s (%.0f ns/op vs %.0f ns/op)\n", b, pct, prevfile, cur, prevns[b]
    }
    printf "%-52s %14.0f %14.0f %+8.1f%%  %s\n", b, prevns[b], cur, pct, status
}
END {
    if (checked == 0)
        print "no overlapping benchmarks between this run and " prevfile
    else if (warned > 0)
        printf "WARNING: %d benchmark(s) regressed more than %d%% (report-only, not failing the build)\n", warned, threshold
    else
        print "no regressions above threshold"
}
' "$raw"
