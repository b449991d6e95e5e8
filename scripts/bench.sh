#!/bin/sh
# Hot-path benchmark runner. Runs the measurement-round benchmarks (serial,
# parallel, and the incremental 0%/1%/10%-churn variants — the incremental
# ns/op over the serial ns/op is the reuse speedup — at 30 iterations each),
# the pair kernel they run (BenchmarkMeasurePairIsolated: one pair per op,
# with simulator events/op) plus the BGP convergence
# benchmarks and the live-saturate-shaped event batch (BenchmarkApplyFlapBatch)
# with allocation reporting, and distills the results into
# BENCH_round.json; then the
# paper-scale world benchmarks (10k/50k/74k-AS build, steady-state converge
# and event-path flap re-convergence, with peak-RSS reporting) into
# BENCH_world.json; then the rovistad serving
# benchmarks (mixed read workload against a populated 1k-AS/50-round store
# in serial, parallel, and append-storm variants, with qps, qps-parallel,
# and p50/p99/p999 latency) into BENCH_serve.json. The files make perf
# regressions diffable across commits.
#
# Usage: scripts/bench.sh [round.json [world.json [serve.json]]]
#        scripts/bench.sh -round [round.json]     # round benchmarks only
#        scripts/bench.sh -world [world.json]     # paper-scale world benchmarks only
#        scripts/bench.sh -serve [serve.json]     # serving benchmark only
#        (defaults: BENCH_round.json BENCH_world.json BENCH_serve.json)
set -eu

serve_only= round_only= world_only=
if [ "${1:-}" = "-world" ]; then
    world_only=1
    shift
    world_out=${1:-BENCH_world.json}
elif [ "${1:-}" = "-serve" ]; then
    serve_only=1
    shift
    serve_out=${1:-BENCH_serve.json}
elif [ "${1:-}" = "-round" ]; then
    round_only=1
    shift
    round_out=${1:-BENCH_round.json}
else
    round_out=${1:-BENCH_round.json}
    world_out=${2:-BENCH_world.json}
    serve_out=${3:-BENCH_serve.json}
fi
tmp=$(mktemp)
tmp1x=$(mktemp)
trap 'rm -f "$tmp" "$tmp1x"' EXIT

# distill turns `go test -bench` output into a JSON report. Recognizes
# ns/op, B/op, allocs/op, the scale benchmarks' peakRSS-MB and coldRSS-MB
# metrics, the convergence benchmarks' spillFlood-MB and spillRetained-MB
# (the spill pool a full flood reaches and what it keeps), the flap batch's
# rounds/op and updates/round, the pair kernel's events/op, and the serving benchmarks' qps / qps-parallel / p50-us / p99-us /
# p999-us / sub-p99-us metrics. Every report carries the core count it was taken on:
# gomaxprocs is the -N suffix go test puts on benchmark names (absent at 1),
# nproc the online CPUs of the host. An optional argument names the output of
# a `-benchtime 1x -cpu 1` pass over some of the same benchmarks (allocation
# counts there repeat exactly, which is what scripts/benchdiff.sh gates on);
# rows that ran in it carry allocs_per_op_1x_cpu1.
distill() {
    awk -v gover="$(go version | awk '{print $3}')" -v nproc="$(getconf _NPROCESSORS_ONLN)" -v onex="${1:-/dev/null}" '
BEGIN {
    n = 0; procs = 1
    while ((getline line < onex) > 0) {
        k = split(line, f, " ")
        if (f[1] !~ /^Benchmark/) continue
        for (i = 3; i < k; i++) if (f[i+1] == "allocs/op") allocs1x[f[1]] = f[i]
    }
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    iters[n] = $2
    names[n] = name
    ns[n] = bytes[n] = allocs[n] = rss[n] = cold[n] = spfl[n] = spret[n] = rpo[n] = upr[n] = epo[n] = qps[n] = qpspar[n] = p50[n] = p99[n] = p999[n] = subp99[n] = "null"
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")        ns[n] = $i
        if ($(i+1) == "B/op")         bytes[n] = $i
        if ($(i+1) == "allocs/op")    allocs[n] = $i
        if ($(i+1) == "peakRSS-MB")   rss[n] = $i
        if ($(i+1) == "coldRSS-MB")   cold[n] = $i
        if ($(i+1) == "spillFlood-MB")    spfl[n] = $i
        if ($(i+1) == "spillRetained-MB") spret[n] = $i
        if ($(i+1) == "rounds/op")     rpo[n] = $i
        if ($(i+1) == "updates/round") upr[n] = $i
        if ($(i+1) == "events/op")     epo[n] = $i
        if ($(i+1) == "qps")          qps[n] = $i
        if ($(i+1) == "qps-parallel") qpspar[n] = $i
        if ($(i+1) == "p50-us")       p50[n] = $i
        if ($(i+1) == "p99-us")       p99[n] = $i
        if ($(i+1) == "p999-us")      p999[n] = $i
        if ($(i+1) == "sub-p99-us")   subp99[n] = $i
    }
    n++
}
END {
    printf "{\n  \"go\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"nproc\": %d,\n  \"benchmarks\": [\n", gover, procs, nproc
    for (i = 0; i < n; i++) {
        line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            names[i], iters[i], ns[i], bytes[i], allocs[i])
        if (names[i] in allocs1x) line = line sprintf(", \"allocs_per_op_1x_cpu1\": %s", allocs1x[names[i]])
        if (rss[i] != "null") line = line sprintf(", \"peak_rss_mb\": %s", rss[i])
        if (cold[i] != "null") line = line sprintf(", \"cold_peak_rss_mb\": %s", cold[i])
        if (spfl[i] != "null") line = line sprintf(", \"spill_flood_mb\": %s", spfl[i])
        if (spret[i] != "null") line = line sprintf(", \"spill_retained_mb\": %s", spret[i])
        if (rpo[i] != "null") line = line sprintf(", \"rounds_per_op\": %s", rpo[i])
        if (upr[i] != "null") line = line sprintf(", \"updates_per_round\": %s", upr[i])
        if (epo[i] != "null") line = line sprintf(", \"events_per_op\": %s", epo[i])
        if (qps[i] != "null") line = line sprintf(", \"qps\": %s", qps[i])
        if (qpspar[i] != "null") line = line sprintf(", \"qps_parallel\": %s", qpspar[i])
        if (p50[i] != "null") line = line sprintf(", \"latency_p50_us\": %s", p50[i])
        if (p99[i] != "null") line = line sprintf(", \"latency_p99_us\": %s", p99[i])
        if (p999[i] != "null") line = line sprintf(", \"latency_p999_us\": %s", p999[i])
        if (subp99[i] != "null") line = line sprintf(", \"sub_delivery_p99_us\": %s", subp99[i])
        printf "%s}%s\n", line, (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}'
}

serve_bench() {
    go test -run '^$' -bench 'BenchmarkServe' -benchmem -benchtime 2s ./internal/api/ | tee "$tmp"
    distill < "$tmp" > "$serve_out"
    echo "wrote $serve_out"
}

if [ -n "$serve_only" ]; then
    serve_bench
    exit 0
fi

if [ -z "$world_only" ]; then
    go test -run '^$' -bench 'BenchmarkMeasureRound' -benchmem -benchtime 30x . | tee "$tmp"
    go test -run '^$' -bench 'BenchmarkMeasurePairIsolated' -benchmem ./internal/detect/ | tee -a "$tmp"
    go test -run '^$' -bench 'BenchmarkConverge' -benchmem ./internal/bgp/ | tee -a "$tmp"
    go test -run '^$' -bench 'BenchmarkApplyFlapBatch' -benchmem ./internal/core/ | tee -a "$tmp"
    go test -run '^$' -bench 'BenchmarkMeasureRound' -benchmem -benchtime 1x -cpu 1 . | tee "$tmp1x"
    distill "$tmp1x" < "$tmp" > "$round_out"
    echo "wrote $round_out"
    [ -z "$round_only" ] || exit 0
fi

# Paper-scale tier: one timed pass each for build/converge (a 50k-AS
# converge runs for seconds; more iterations would add minutes for little
# signal). The flap benchmarks are microsecond-scale, so they get the default
# benchtime for stable numbers.
go test -run '^$' -bench 'BenchmarkWorldBuild|BenchmarkConvergeLarge' \
    -benchmem -benchtime 1x -timeout 30m ./internal/core/ | tee "$tmp"
go test -run '^$' -bench 'BenchmarkFlapReconverge' \
    -benchmem -timeout 30m ./internal/core/ | tee -a "$tmp"
distill < "$tmp" > "$world_out"
echo "wrote $world_out"
[ -z "$world_only" ] || exit 0

serve_bench
