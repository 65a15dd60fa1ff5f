#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, run from the root of a checkout.
# Builds the harness from source and runs it with every by-product (Go
# build cache, temp files, binaries, state dirs, span files) under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/bin/avdbench" .
exec "$out/bin/avdbench" "$@"
