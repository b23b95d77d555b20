#!/bin/bash
# What BENCHMARK.json runs, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./bench into .bench_build/ and runs it with the arguments it
# was given. The Go toolchain would otherwise keep its build cache, its
# temporary files and its telemetry counters under $HOME and /tmp; here
# they all stay inside the checkout (.bench_build/ is in .gitignore), so
# the benchmark reads and writes nowhere else. The first build in a fresh
# checkout also compiles the standard library and takes about a minute on
# two cores; later ones take under a second.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "bench/run.sh: run me from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
unset XDG_CACHE_HOME XDG_CONFIG_HOME

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
