#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload beacon80 --seed 1 --seconds 15 --trace 0
#
# Every build artifact, Go cache and temporary file lands under
# .bench_build/ in the current directory, so the run touches nothing
# outside the checkout. A failed build exits non-zero before any result
# is printed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
