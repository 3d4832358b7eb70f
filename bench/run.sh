#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; this is
# the command BENCHMARK.json names. Everything the go tool writes — build
# cache, GOPATH, telemetry — is pointed inside .bench_build, and so
# are the journals the benchmark fsyncs, so a run reads and writes nothing
# outside its checkout. In a directory without the repository's go.mod the
# script exits non-zero before it starts the go tool, without printing a
# result.
#
# The go tool's telemetry is switched off in that HOME before the first go
# command: with a fresh HOME it would otherwise start a detached `go` child
# to write its weekly reports, which outlives a short run.
set -euo pipefail

if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: run from the root of the repository" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
unset XDG_CONFIG_HOME XDG_CACHE_HOME
mkdir -p "$HOME/.config/go/telemetry"
echo off >"$HOME/.config/go/telemetry/mode"

go build -o "$build/bench" ./bench
exec "$build/bench" -data-dir "$build/data" "$@"
