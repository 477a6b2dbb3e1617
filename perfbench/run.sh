#!/usr/bin/env bash
# Builds perfbench against the checkout it is run from and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/;
# spans, reports and the run's WAL and catalog go to .bench_out/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
  exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
