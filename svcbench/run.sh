#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash svcbench/run.sh --workload small --seed 1 --seconds 25 --trace 0
#
# The binary, every Go cache, temporary files and the go command's own
# config and telemetry stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ] || [ ! -f "$root/svcbench/go.mod" ]; then
	echo "svcbench: run from the repository root; the mmserve sources are not here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" "$@"
