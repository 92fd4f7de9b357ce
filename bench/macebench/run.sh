#!/usr/bin/env bash
# Builds macebench and runs it from the repository root, passing every
# argument through and propagating its exit code. This is the command
# BENCHMARK.json names and the hook a CI lane calls.
#
#   bash bench/macebench/run.sh -seed 2004
#   bash bench/macebench/run.sh --workload churn_lookup --seed 7 --seconds 20 --trace 0
#
# Everything the toolchain writes (build cache, temporaries, the binary)
# stays under bench/macebench/out, so a run touches nothing outside the
# checkout. The first build in a fresh checkout compiles the standard
# library into that cache and takes about a minute; later ones are no-ops.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$here/out"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/macebench" .)
cd "$root"
exec "$out/macebench" "$@"
