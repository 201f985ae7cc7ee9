#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of a checkout:
#
#   bash bench/run.sh --workload query_hot --seed 1 --seconds 12 --trace 0
#
# The binary, go's build cache and temporary files, and everything the
# benchmark itself writes stay below .bench_build in that checkout.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
