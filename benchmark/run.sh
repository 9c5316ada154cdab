#!/usr/bin/env bash
# Builds the harness and cmd/simjoind from the checkout's own source and
# runs one benchmark workload:
#
#   bash benchmark/run.sh --workload serve_query --seed 1 --seconds 25 --trace 0
#
# Everything it writes — build cache, binaries, scratch directories, span
# files — lands under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/benchmark" . && go build -o "$out/simjoind" simjoin/cmd/simjoind)
exec "$out/benchmark" -simjoind "$out/simjoind" -work "$out" "$@"
