#!/usr/bin/env bash
# Builds planserverd and the benchmark from the source tree this script
# sits in, then runs the benchmark with the given arguments:
#
#	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache included, stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/planserverd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/planserverd and perfbench/)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/home/go" HOME="$build/home" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$build/planserverd" ./cmd/planserverd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -server "$build/planserverd" "$@"
