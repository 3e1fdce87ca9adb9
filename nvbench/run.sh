#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it from
# the checkout root with the given arguments:
#
#   bash nvbench/run.sh --workload group-small --seed 1 --seconds 10 --trace 0
#
# Build cache, binary and span dumps stay under .bench_build in the
# checkout. Outside a full checkout the build fails and so does this
# script, without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/nvbench" && go build -o "$out/nvbench" .)
cd "$root"
exec "$out/nvbench" "$@"
