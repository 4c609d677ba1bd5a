#!/usr/bin/env bash
# Builds gpufreqd, gpufreq and the benchmark from this checkout into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-known --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the runs write
# stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gpufreqd || ! -d internal ]]; then
	echo "perfbench: run from the repository root (no gpufreqd sources here)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/gpufreqd ./cmd/gpufreq >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
