#!/usr/bin/env bash
# Builds the benchmark and campaignd from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-1m --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, module cache and config
# directory are pointed there too.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/campaignd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/campaignd and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/campaignd" ./cmd/campaignd >&2

exec "$out/bin/perfbench" -root "$root" -campaignd "$out/bin/campaignd" "$@"
