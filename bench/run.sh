#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload serve-steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's scratch files and the go
# command's own config (telemetry counters) all live under .bench_build/ in
# the repository, so a run writes nothing outside it. A tree that holds
# only the benchmark (no dtmsched sources) fails to build, and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/dtmsched-bench" .)
cd "$root"
exec "$out/dtmsched-bench" "$@"
