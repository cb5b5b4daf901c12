#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one workload:
#
#   bash perfbench/run.sh --workload live-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, binary, temporary files) goes under .bench_build/ there.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
