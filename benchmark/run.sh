#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the Go toolchain and the benchmark write stays under
# benchmark/out: the build cache, temporary files, the binary, databases
# and traces.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" TMPDIR="$PWD/out/tmp"
export XDG_CONFIG_HOME="$PWD/out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go build -o out/benchmark .
exec out/benchmark "$@"
