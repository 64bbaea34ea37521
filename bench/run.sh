#!/usr/bin/env bash
# The BENCHMARK.json command: build imbench from source into the checkout's
# .bench_build (nothing is read or written outside the checkout, the Go
# build cache included) and run it. Arguments are passed through:
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# The package imports repro/internal/..., so it builds only inside a
# checkout of the repository; anywhere else this script fails, as it must.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off

(cd "$here" && go build -o "$build/imbench" .)
exec "$build/imbench" -out "$here/out" "$@"
