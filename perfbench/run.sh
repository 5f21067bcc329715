#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload table4-serial --seed 0 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch state all
# live under .bench_build/ in the current directory, so nothing is
# written outside the checkout and nothing is fetched from the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
