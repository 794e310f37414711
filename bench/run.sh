#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh                                   # all five workloads
#   bash bench/run.sh --workload sim-miss --seed 1 --seconds 15 --trace 0
#
# The toolchain's build cache, temporary files and the binary all stay under
# .bench_build/ in the root, so a fresh checkout's first run compiles the
# standard library too and later runs reuse it.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$build/c3dbench" .)
exec "$build/c3dbench" "$@"
