#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from that root. The Go build and module caches are kept in
# .bench_build/ too, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
go build -C "$here" -o "$build/adp-benchmark" .
cd "$root"
exec "$build/adp-benchmark" "$@"
