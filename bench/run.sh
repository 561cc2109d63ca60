#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run
# from the root of the checkout:
#
#   bash bench/run.sh --workload mixed_pipe --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# own per-user state) is kept under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

(
	cd "$root/bench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off \
		go build -o "$build/bench" .
)

BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/bench" "$@"
