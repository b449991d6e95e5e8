#!/bin/sh
# Tier-1 verification gate, mirroring `make check` for environments without
# make: gofmt (any file it would rewrite fails), vet, build, full test suite,
# then a race-detector pass over the concurrency-bearing packages (the
# parallel executor, the scans and pair measurements it shards, and the
# netsim state they clone).
set -eux

unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt -l: $unformatted" >&2; exit 1; }
go vet ./...
go build ./...
go test ./...
go test -race ./internal/core/ ./internal/netsim/ ./internal/scan/ ./internal/pipeline/
