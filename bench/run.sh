#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the runner from source
# inside the checkout and runs it with the driver's arguments, e.g.
#
#   bash bench/run.sh --workload tier_zipf --seed 7 --seconds 20 --trace 0
#
# Everything it writes (build cache, binary, bench/out) stays inside the
# checkout. Without the repository around it the build fails and so does
# this script: the benchmark measures the program, it does not carry a copy.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

# Everything the go command writes goes under ${build}: its build cache, its
# scratch directory, and its own settings and counters (which it keeps in the
# user's configuration directory).
export GOCACHE="${build}/go-cache"
export GOPATH="${build}/gopath" # no module is ever fetched; go only wants the variable set
export GOTMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
mkdir -p "${GOTMPDIR}"

go build -C "${root}/bench" -o "${build}/alpabench" . >&2
exec "${build}/alpabench" -out "${root}/bench/out" "$@"
