#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh summarize
#
# Run from the repository root. The Go build cache and the binary stay
# under .bench_build, so a run reads and writes only inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$root/.bench_build/config" XDG_CACHE_HOME="$root/.bench_build/cache"
go -C perfbench build -o "$root/.bench_build/perfbench/perfbench" .
exec "$root/.bench_build/perfbench/perfbench" "$@"
