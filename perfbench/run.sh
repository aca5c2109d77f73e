#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#   bash perfbench/run.sh --workload serve_steady --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write (the
# binary, the Go build cache, the toolchain's temporary and telemetry files,
# the WAL directories) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
