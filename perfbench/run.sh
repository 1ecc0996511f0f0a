#!/usr/bin/env bash
# Builds the benchmark from the module's source and runs it. Run from the
# module root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
