#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout's
# source and run it with the driver's arguments. Everything the Go toolchain
# and the benchmark write — build cache, temporary files, the binary, the
# label stores — stays under .bench_build/ in the checkout, so the run needs
# no writable directory outside it. The first build in a checkout compiles
# the standard library into that cache (about a minute on two cores); later
# runs only re-check it.
set -euo pipefail

# The benchmark is a package of module repro: without the module there is
# nothing to build, and the go command is not started at all.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/gotmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# With telemetry in its default "local" mode the go command starts a detached
# child (go "** telemetry **", own session) the first time it sees a fresh
# config directory, and that child can outlive a short or failed build. The
# mode file is the only switch (GOTELEMETRY is read-only), so turn it off
# before the first go command: the run then leaves no process behind.
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
