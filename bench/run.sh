#!/usr/bin/env bash
# The command BENCHMARK.json names: build mtasts-bench from source inside
# the checkout, then run it from the checkout's root with the arguments
# the harness passes (--workload, --seed, --seconds, --trace).
#
# Everything the build and the run write stays under the checkout:
# the Go build cache, GOPATH and temp files in .bench_build/, the
# benchmark's own files in bench/out/. In a directory that holds only
# BENCHMARK.json and bench/ the build fails (the module under test is
# missing) and this script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/mtasts-bench" ./cmd/mtasts-bench)
cd "$root"
exec "$build/mtasts-bench" -workdir bench/out "$@"
