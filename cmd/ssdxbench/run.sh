#!/usr/bin/env bash
# Builds ssdxbench from source and runs it with the given flags. Run it from
# the repository root:
#
#   bash cmd/ssdxbench/run.sh --workload t3c8-seqwrite --seed 7 --seconds 12 --trace 0
#
# The Go build cache and the binary stay under .bench_build in the current
# directory, and the toolchain is kept local and offline.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/ssdxbench" .)
exec "$out/ssdxbench" "$@"
