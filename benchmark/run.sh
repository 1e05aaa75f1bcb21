#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash benchmark/run.sh --workload NAME ...
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the temporary directory
# that holds wire-durable's WAL and the span files.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOENV=off GOWORK=off
export TMPDIR=$out/tmp

go build -C "$here" -o "$out/crs-benchmark" .
exec "$out/crs-benchmark" "$@"
