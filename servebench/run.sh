#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servebench/run.sh --workload fresh --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache go
# to .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
