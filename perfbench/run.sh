#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
