#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs it.
# Run from the checkout root; every argument passes through to the binary:
#
#	bash servebench/run.sh --workload live --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the checkout. No network is used.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
