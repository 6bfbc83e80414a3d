#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload:
#   bash perfbench/run.sh --workload sky-read --seed 1 --seconds 15 --trace 0
# Run it from the repository root. The Go build cache, the go command's
# telemetry, the binary and the traced runs' span files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
