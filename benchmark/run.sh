#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's source
# and run it, keeping the Go build cache and the binary inside the
# checkout (.bench_build) so nothing outside it is read or written.
# Arguments pass through to the binary; see README.md.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/ltr-benchmark" ./benchmark
exec "$build/ltr-benchmark" "$@"
