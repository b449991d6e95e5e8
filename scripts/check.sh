#!/bin/sh
# Tier-1 verification gate, mirroring `make check` (all but its fuzz smoke)
# for environments without make: gofmt (any file it would rewrite fails), vet,
# build, full test suite, then a race-detector pass over the packages of the
# Makefile's `race` target, which says why each is there; keep the two lists
# in step.
set -eux

unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt -l: $unformatted" >&2; exit 1; }
go vet ./...
go build ./...
go test ./...
go test -race ./internal/core/ ./internal/netsim/ ./internal/scan/ ./internal/pipeline/ ./internal/bgp/ ./internal/topology/ ./internal/store/ ./internal/api/ ./internal/stream/ ./internal/rtr/ ./internal/daemon/ ./internal/telemetry/
