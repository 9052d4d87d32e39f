#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload wavefront-editdist --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, checkpoint logs, span
# dumps) goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
