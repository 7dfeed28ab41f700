#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload t9-assist --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every file the benchmark writes stay
# under .bench_build/ in the current directory; the build never touches
# the network.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
		go build -o "$out/perfbench-bin" .
)
exec "$out/perfbench-bin" -work "$out/perfbench" "$@"
