#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping the build cache,
# the binary and every temporary file under .bench_build/ of the checkout.
# Arguments are passed through to the program (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$here" build -o "$build/vcbench" .
exec "$build/vcbench" "$@"
