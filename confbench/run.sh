#!/usr/bin/env bash
# Builds the confederation benchmark from the enclosing checkout's source
# and runs it with the given arguments. Run from the checkout root:
#
#   bash confbench/run.sh --workload push-serve --seed 1 --seconds 10 --trace 0
#
# The Go build cache, GOPATH, the Go configuration directory (telemetry
# counters), temporary files and the binary all live under .bench_build/
# in the checkout, so nothing outside it is written; the toolchain is only
# read. Nothing is downloaded: the benchmark needs no module beyond the
# checkout itself.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/confbench" .) >&2
exec "$out/confbench" "$@"
