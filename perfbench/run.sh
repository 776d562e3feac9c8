#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#
#   bash perfbench/run.sh --workload filtered_seq --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the go command's own
# configuration and telemetry files included, stays under .bench_build/ in
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/dlacep-perfbench" .)
exec "$out/dlacep-perfbench" "$@"
