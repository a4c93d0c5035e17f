#!/usr/bin/env bash
# Builds the benchmark and hummingbirdd from this checkout with the local Go
# toolchain (offline; every cache and temporary file stays under
# .bench_build), then runs one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload signoff-soc --seed 1 --seconds 30 --trace 0
#
# Build output goes to standard error; the result is the last line of
# standard output. Any build or run failure exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
(cd "$root" && go build -o "$out/hummingbirdd" ./cmd/hummingbirdd) >&2

exec "$out/perfbench" -root "$root" -daemon "$out/hummingbirdd" "$@"
