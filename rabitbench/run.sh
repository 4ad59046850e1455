#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run from the repository root:
#
#   bash rabitbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under
# .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f rabitbench/go.mod ]]; then
	echo "rabitbench: run from the repository root (go.mod, internal/ and rabitbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd rabitbench && go build -o "$out/rabitbench" .)
exec "$out/rabitbench" "$@"
