#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build artifact
# (Go build cache included) inside the checkout under .bench_build/.
# Run from the root of a checkout:  bash bench/run.sh --workload steady ...
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/recycle-bench" .)
cd "$root"
exec "$build/recycle-bench" "$@"
