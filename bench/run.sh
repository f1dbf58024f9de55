#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sim-active --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the binary, the Go build cache, the serve-mix run caches and the
# trace spans. The benchmark is its own module (bench/go.mod) that reaches
# the simulator through a replace of the parent directory, so a copy of
# bench/ without the repository around it fails to build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/sfence-bench" .)
exec "$out/sfence-bench" "$@"
