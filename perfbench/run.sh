#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build and the runs leave behind (the Go
# build cache, the binary, temporary repositories, span files) stays under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
