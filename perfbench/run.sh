#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload converge --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
# The go command keeps its env file and telemetry counters in the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# A checkout without version control, or one git refuses to read, is
# built without the commit stamp; the results then say "unknown".
(cd perfbench && { go build -o "$out/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
