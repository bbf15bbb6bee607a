#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source into .bench_build/ in
# the checkout (build cache, temporary files and binary all stay there), then
# runs it with the driver's arguments:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# By hand, `go run ./bench ...` from the repo root does the same.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/onepass-bench" ./bench
exec "$build/onepass-bench" "$@"
