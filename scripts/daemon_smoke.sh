#!/bin/sh
# Smoke test for the rovistad binary itself: build it, start it on the
# ~200-AS world, wait for /healthz, read /v1/rounds, then SIGINT it and
# require exit 0 and the clean-shutdown log line. What the daemon serves and
# how it drives rounds is tested in-process (internal/daemon); this covers
# only what those tests cannot reach — flag parsing and signal handling in
# cmd/rovistad's main. This is what CI's daemon-smoke job runs.
#
# Usage: scripts/daemon_smoke.sh [port]   (default 18090)
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
    echo "daemon-smoke: FAIL: $*" >&2
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

curl -sf "$base/v1/rounds" | grep -q '"status": *"ok"' || fail "/v1/rounds has no ok round"
echo "ok: GET /v1/rounds"

kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pid=
[ "$rc" = "0" ] || fail "daemon exited $rc on SIGINT (want 0)"
grep -q "stopped cleanly" "$logf" || fail "daemon log lacks clean-shutdown line"

echo "daemon-smoke: PASS"
