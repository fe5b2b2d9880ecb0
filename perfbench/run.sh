#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with
# the arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload poll-http --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, and the journals a run writes all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --workdir "$out/work" "$@"
