#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. Build products and the Go build cache stay inside the checkout
# (.bench_build/), so the command reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
(cd bench && go build -o ../.bench_build/wanify-benchmark .)
exec .bench_build/wanify-benchmark "$@"
