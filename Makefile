# Developer entry points. `make check` is the tier-1 gate: everything a
# change must pass before it lands.

GO ?= go

.PHONY: check fmt vet build test race fuzz-smoke robustness cover bench benchdiff bench-e2e serve-bench daemon-smoke fanout-smoke round-smoke campaign-smoke loc clean

check: fmt vet build test race fuzz-smoke

# gofmt -l prints the files it would rewrite; any output fails the gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run focuses on the packages with real concurrency: the parallel
# executor the sweeps and the pair measurements run on (core, pipeline), the
# per-candidate scans it shards (scan), the host/network state they clone
# and overlay (netsim), the parallel convergence engine (bgp), the
# relying party's parallel signature checks (rpki), the
# parallel cone computation (topology), the serving subsystem's concurrent
# append/query paths (store, api), the streaming-ingest pipeline's stage
# goroutines and fan-out hub (stream, rtr), the daemon lifecycle that runs
# rounds, queries and what-if forks side by side (daemon), and the histogram
# and section registry all of them record into while /metrics reads
# (telemetry). The second pass repeats the tests that race a path-cache
# invalidation against concurrent readers, the one place that race is run.
race:
	$(GO) test -race ./internal/core/ ./internal/netsim/ ./internal/scan/ ./internal/pipeline/ ./internal/bgp/ ./internal/rpki/ ./internal/topology/ ./internal/store/ ./internal/api/ ./internal/stream/ ./internal/rtr/ ./internal/daemon/ ./internal/telemetry/
	$(GO) test -race -count=10 -run 'TestRouteIDsExactAndNeverReused|TestPathCacheEquivalence' ./internal/netsim/

# Short fuzzing passes over the parsers/state machines fuzz has the best
# shot at: the TCP endpoint's segment handling, the pair classifier on
# arbitrary IP-ID series (FNRate in [0, 1], spikes inside the post window,
# usable exactly when FNRate ≤ α, and every pruned fit bit for bit the full
# OLS), the prefix-interning
# table's LPM invariants, the campaign scheduler's exact-restoration
# invariant under arbitrary overlapping attack windows, the /v1/whatif query
# parser, the relying party under mutated RPKI objects (a long-lived,
# memoising RelyingParty against a fresh one; no panic), the VRP index's
# covering lookup (exactly a brute-force scan of the VRPs, least specific
# first, over IPv4, IPv6, invalid, unmasked and repeated prefixes), /v1/stream's
# filter parameters (200 or 400, and an accepted filter is a usable hub view
# key), the RTR PDU decoder on peer bytes (no panic, nothing read past
# the 64 KiB cap, an accepted prefix PDU's Max Length is in [prefix length,
# 32], an accepted PDU survives its own encoder), the store's
# segment loader on damaged files (no panic; what it returns is a byte-exact
# prefix of the file ending at validEnd), the store's record decoder on raw
# CRC-valid payloads (an accepted payload is exactly what encodeRecord writes
# for it), the export dataset readers (whatever decodes re-encodes without
# error and decodes to the same records; the writers' bytes are a fixpoint),
# and the MRT archive reader (no allocation past a fixed multiple of the
# input; an accepted archive re-encodes through WriteView to the same
# observations). Each target needs its own invocation (go test accepts one
# -fuzz pattern at a time).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzHandleSegment -fuzztime 5s ./internal/tcpsim/
	$(GO) test -run '^$$' -fuzz FuzzDetect -fuzztime 5s ./internal/detect/
	$(GO) test -run '^$$' -fuzz FuzzPrefixTable -fuzztime 5s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzCampaignSchedule -fuzztime 5s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz FuzzParseWhatIfQuery -fuzztime 5s ./internal/daemon/
	$(GO) test -run '^$$' -fuzz FuzzRelyingParty -fuzztime 5s ./internal/rpki/
	$(GO) test -run '^$$' -fuzz FuzzVRPSetCovering -fuzztime 5s ./internal/rpki/
	$(GO) test -run '^$$' -fuzz FuzzStreamQuery -fuzztime 5s ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzReadPDU -fuzztime 5s ./internal/rtr/
	$(GO) test -run '^$$' -fuzz FuzzLoadSegment -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 5s ./internal/export/
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 5s ./internal/export/
	$(GO) test -run '^$$' -fuzz FuzzReadDumps -fuzztime 5s ./internal/mrt/

# Metamorphic robustness harness: determinism under faults, classification
# F1 against ground truth, the no-silent-flip guard, and the profile sweep
# distilled into BENCH_robustness.json.
robustness:
	sh scripts/robustness.sh

# Per-package coverage with the committed 2-point soft floor
# (COVERAGE_baseline.txt; re-record with scripts/coverage.sh -update).
cover:
	sh scripts/coverage.sh

# Round + convergence benchmarks with allocation reporting, distilled into
# BENCH_round.json (ns/op, B/op, allocs/op per benchmark) for diffing
# across commits.
bench:
	sh scripts/bench.sh

# Allocation gate: allocs/op of the measurement-round benchmarks at
# -benchtime 1x -cpu 1 (exactly repeatable) against BENCH_round.json within
# 1 %; re-record with `scripts/bench.sh -round` after a deliberate change.
benchdiff:
	sh scripts/benchdiff.sh

# The end-to-end ruler (bench/README.md): every BENCHMARK.json workload
# through the daemon's real path, untraced for the end-to-end metrics and
# traced for the per-layer ledger, with correctness checked in every run.
# This, not the BENCH_*.json files, is the basis for performance claims.
bench-e2e:
	sh bench/run.sh

# Serving-path benchmarks only: the rovistad mixed read workload against a
# populated 1k-AS/50-round store in serial, parallel, and append-storm
# variants, distilled into BENCH_serve.json with qps, qps-parallel, and
# p50/p99/p999 request latency.
serve-bench:
	sh scripts/bench.sh -serve

# Binary smoke: build and start rovistad on a ~200-AS world, wait for
# /healthz, read /v1/rounds, then SIGINT and require a clean exit (mirrors
# CI's daemon-smoke job). Endpoints, streaming and the lifecycle are tested
# in-process by internal/daemon.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# bench-smoke runs bench's workload $(1) for 2 s and checks its contract
# line, the last line of stdout: correct, nothing failed and at least $(2)
# operations attempted. Not a performance measurement: that is bench-e2e.
define bench-smoke
	@out=$$(mktemp -d); \
	line=$$($(GO) run ./bench -workload $(1) -seconds 2 -out "$$out" | tail -n 1); \
	rm -rf "$$out"; \
	n=$$(echo "$$line" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p'); \
	if echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -q '"failed":0,' && \
		[ "$${n:-0}" -ge $(2) ]; then \
		echo "$@: PASS $$(echo "$$line" | cut -c1-80)"; \
	else \
		echo "$@: FAIL: $$line" >&2; exit 1; \
	fi
endef

# Serving smoke: bench's serve-fanout workload (a closed-loop Zipf query
# mix beside appends and 256 /v1/stream subscribers on one store); mirrors
# CI's fanout-smoke job.
fanout-smoke:
	$(call bench-smoke,serve-fanout,1)

# Round smoke: bench's full-round workload, cold rounds of the default
# 1,218-AS world end to end with each round's data-plane F1 check; it runs
# at least 3 rounds whatever the duration (mirrors CI's round-smoke job).
round-smoke:
	$(call bench-smoke,full-round,3)

# Adversarial-scenario smoke: a seeded hijack campaign under paper faults
# (non-empty, deterministic quadrant report) plus /v1/whatif counterfactual
# queries against a live rovistad (mirrors CI's campaign-smoke job).
campaign-smoke:
	sh scripts/campaign_smoke.sh

# Non-test Go lines outside bench/: the code-size figure ROADMAP's
# simplicity aims are stated in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l

clean:
	$(GO) clean ./...
