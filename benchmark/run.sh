#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it; every
# argument goes to the harness (see README.md). The Go build, module and
# package caches all live under .bench_build/ at the repository root, so
# nothing outside the checkout is read or written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/tuningbench" .)
cd "$root"
exec "$build/tuningbench" "$@"
