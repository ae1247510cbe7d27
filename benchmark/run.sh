#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write (Go build cache, the binary, the
# durable data directories) stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/expdb-benchmark" .)
exec "$out/expdb-benchmark" -data-root "$out/data" -spec "$(dirname "$here")/BENCHMARK.json" "$@"
