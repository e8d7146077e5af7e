#!/usr/bin/env bash
# Builds the flooding benchmark from source and runs one workload.
#
#   bash floodbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of a repository checkout. Everything the build and
# the run leave behind (Go build cache, binary, temp state, per-run result
# and span files) goes under .bench_build/ in that checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "floodbench: $root is not a manhattanflood checkout (no go.mod/internal); nothing to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/results"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/floodbench" .)

export TMPDIR="$out/tmp"
exec "$out/floodbench" --results "$out/results" "$@"
