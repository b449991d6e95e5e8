#!/bin/sh
# Allocation gate for the measurement-round benchmarks. Runs the
# BenchmarkMeasureRound* rows once each at -benchtime 1x -cpu 1 — where
# allocs/op repeats exactly on any machine — and compares them against the
# allocs_per_op_1x_cpu1 recorded in BENCH_round.json by `scripts/bench.sh`:
# a row more than 1 % off its baseline in either direction fails, as does a
# row without a baseline or a baseline that did not run. ns/op is printed
# but not judged (shared runners are too noisy). After a deliberate change,
# re-record with `scripts/bench.sh -round`.
#
# Usage: scripts/benchdiff.sh [round.json]      (default: BENCH_round.json)
set -eu
cd "$(dirname "$0")/.."

base=${1:-BENCH_round.json}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkMeasureRound' -benchtime 1x -cpu 1 -benchmem . | tee "$tmp"

awk -v base="$base" '
BEGIN {
    # The baseline holds one benchmark row per line.
    while ((getline line < base) > 0) {
        if (!match(line, /"name": "[^"]+"/)) continue
        name = substr(line, RSTART + 9, RLENGTH - 10)
        if (match(line, /"allocs_per_op_1x_cpu1": [0-9]+/))
            want[name] = substr(line, RSTART + 25, RLENGTH - 25) + 0
    }
}
/^BenchmarkMeasureRound/ && /allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") got = $i + 0
    ran[name] = 1
    if (!(name in want)) {
        printf "benchdiff: %s has no allocs_per_op_1x_cpu1 in %s\n", name, base
        bad = 1
        next
    }
    d = got - want[name]
    if (d < 0) d = -d
    verdict = (d * 100 <= want[name]) ? "ok" : "FAIL (more than 1% off)"
    printf "benchdiff: %-44s allocs/op %8d  baseline %8d  %s\n", name, got, want[name], verdict
    if (verdict != "ok") bad = 1
}
END {
    for (name in want) if (!(name in ran)) {
        printf "benchdiff: %s is in %s but did not run\n", name, base
        bad = 1
    }
    exit bad
}' "$tmp"
