#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload lm_gd --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# workload inputs, span dumps) stays under .bench_build/ in the current
# directory. The module has no third-party dependencies, so the build works
# offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
