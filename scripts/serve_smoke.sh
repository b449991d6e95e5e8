#!/bin/sh
# End-to-end smoke test for the rovistad serving daemon: build it, start it
# on a ~200-AS world, hit every public endpoint asserting HTTP 200 and a
# non-empty body, exercise the error paths, then SIGINT the daemon and
# require a clean (exit 0) shutdown. This is what CI's serve-smoke job runs.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18090)
set -eu

port=${1:-18090}
base="http://127.0.0.1:$port"
bin=$(mktemp -d)
store=$(mktemp -d)
logf=$(mktemp)
pid=

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$bin" "$store" "$logf"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- rovistad log ---" >&2
    cat "$logf" >&2
    exit 1
}

go build -o "$bin/rovistad" ./cmd/rovistad

"$bin/rovistad" -addr "127.0.0.1:$port" -store "$store" \
    -size smoke -rounds 3 -interval 5 -seed 42 >"$logf" 2>&1 &
pid=$!

# Round 0 is measured before the listener opens, so the first successful
# /healthz implies data is already queryable.
i=0
until curl -sf -o /dev/null "$base/healthz" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -ge 120 ] && fail "daemon did not come up within 60s"
    kill -0 "$pid" 2>/dev/null || fail "daemon exited before serving"
    sleep 0.5
done

# An ASN guaranteed to exist: the top-ranked one.
asn=$(curl -sf "$base/v1/top?n=1" | sed -n 's/.*"asn": *\([0-9]*\).*/\1/p' | head -1)
[ -n "$asn" ] || fail "could not extract an ASN from /v1/top"

# expect_200 PATH — assert HTTP 200 and a non-empty body.
expect_200() {
    code=$(curl -s -o /tmp/smoke_body.$$ -w '%{http_code}' "$base$1")
    [ "$code" = "200" ] || fail "GET $1 -> $code (want 200)"
    [ -s /tmp/smoke_body.$$ ] || fail "GET $1 -> empty body"
    rm -f /tmp/smoke_body.$$
    echo "ok: GET $1"
}

expect_200 /healthz
expect_200 /metrics
expect_200 /v1/rounds
expect_200 "/v1/as/$asn"
expect_200 "/v1/as/$asn/timeseries"
expect_200 "/v1/top?n=10"
expect_200 "/v1/top?n=10&order=unprotected"
expect_200 "/v1/diff?from=0&to=latest"
expect_200 "/v1/export?format=json"
expect_200 "/v1/export?format=csv"
expect_200 "/v1/export?format=json&round=0"
expect_200 /debug/pprof/
expect_200 "/debug/pprof/profile?seconds=1"

# Error paths must be errors, not 200s or crashes.
for path in /v1/as/999999999 /v1/as/notanumber "/v1/export?format=xml" \
    "/v1/diff?from=0&to=99999"; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$base$path")
    case "$code" in
    4*) echo "ok: GET $path -> $code" ;;
    *) fail "GET $path -> $code (want 4xx)" ;;
    esac
done

# The JSON export must carry the format version shared with internal/export.
curl -sf "$base/v1/export?format=json" | grep -q '"format_version"' ||
    fail "/v1/export JSON lacks format_version"

# Graceful shutdown: SIGINT must drain and exit 0.
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pid=
[ "$rc" = "0" ] || fail "daemon exited $rc on SIGINT (want 0)"
grep -q "stopped cleanly" "$logf" || fail "daemon log lacks clean-shutdown line"

# Incremental rounds: with -interval 0 the second round has zero churn, so
# it must be served entirely from the pair-result cache, re-evaluate no test
# prefix and rescore no AS, and /metrics must report the reuse under
# rovistad.rounds.
store2=$(mktemp -d)
"$bin/rovistad" -addr "127.0.0.1:$port" -store "$store2" \
    -size smoke -rounds 2 -interval 0 -seed 42 >"$logf" 2>&1 &
pid=$!
i=0
until curl -s "$base/metrics" 2>/dev/null | grep -q '"pairs_reused": *[1-9]'; do
    i=$((i + 1))
    [ "$i" -ge 120 ] && { rm -rf "$store2"; fail "no pair reuse reported within 60s"; }
    kill -0 "$pid" 2>/dev/null || { rm -rf "$store2"; fail "daemon exited before reuse round"; }
    sleep 0.5
done
echo "ok: zero-churn round reused pairs"
# Round 1's own line: every per-stage counter the round can avoid is zero.
grep -q 'round 1 .*remeasured=0, prefixes re-evaluated=0, ASes rescored=0' "$logf" ||
    { rm -rf "$store2"; fail "zero-churn round re-evaluated prefixes or rescored ASes"; }
# The cumulative counters exist and hold round 0's cold work only.
metrics=$(curl -s "$base/metrics")
for key in test_prefixes_reevaluated tnodes_requalified ases_rescored; do
    echo "$metrics" | grep -q "\"$key\": *[1-9]" ||
        { rm -rf "$store2"; fail "/metrics rounds lacks a non-zero $key"; }
done
echo "ok: zero-churn round re-evaluated no prefix and rescored no AS"
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pid=
rm -rf "$store2"
[ "$rc" = "0" ] || fail "incremental daemon exited $rc on SIGINT (want 0)"

echo "serve-smoke: PASS"
