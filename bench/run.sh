#!/bin/sh
# One command for the whole ruler: builds the benchmark once, runs every
# workload untraced (the end-to-end numbers) and then traced (the per-layer
# numbers), each in its own process, and prints every metric by name with
# its unit. Exits non-zero if a run fails its correctness checks, is void,
# or the traced and untraced score timelines of a workload disagree.
#
# Usage: bench/run.sh [-seed N] [-workload W] [-scale F] [-out DIR]
#   -seed N      load seed (default 7)
#   -workload W  run only this workload (default: all of BENCHMARK.json)
#   -scale F     measure for F × run_seconds; below 1 the results are marked
#                "scaled" and -compare refuses them (smoke use only)
#   -out DIR     result files, traces and the binary (default bench/out)
#
# A result set for `bench -compare A B` is a directory tree of such runs,
# e.g. bench/run.sh -seed 7 -out bench/out/A/7; … -seed 8 -out bench/out/A/8.
set -eu
cd "$(dirname "$0")/.."

seed=7 workloads="" scale=1 out=bench/out
while [ $# -gt 0 ]; do
    case $1 in
    -seed) seed=$2 ;;
    -workload) workloads=$2 ;;
    -scale) scale=$2 ;;
    -out) out=$2 ;;
    *) echo "usage: bench/run.sh [-seed N] [-workload W] [-scale F] [-out DIR]" >&2; exit 2 ;;
    esac
    shift 2
done

mkdir -p "$out"
go build -o "$out/bench" ./bench
run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
seconds=$(awk -v r="$run_seconds" -v f="$scale" 'BEGIN { n = int(r * f + 0.5); if (n < 1) n = 1; print n }')
[ -n "$workloads" ] || workloads=$("$out/bench" -workloads)

for w in $workloads; do
    rm -f "$out/$w.json" "$out/$w.traced.json" "$out/$w.trace.jsonl"
    for trace in 0 1; do
        echo "bench: $w seed=$seed seconds=$seconds trace=$trace" >&2
        "$out/bench" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" -out "$out" >/dev/null
    done
done
"$out/bench" -report "$out"
