#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# writes (binary, Go build and module caches) stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# Re-run on every invocation: with the cache warm it only checks that the
# binary is up to date.
(cd bench && go build -o "$build/incastbench" .)
exec "$build/incastbench" "$@"
