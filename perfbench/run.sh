#!/usr/bin/env bash
# Builds the benchmark and the tridserve binary it drives, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_small --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ so the run
# reads and writes nothing outside the checkout. Build output goes to
# standard error; the last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off GOPROXY=off

go build -o "$out/tridserve" ./cmd/tridserve >&2
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -bin "$out" "$@"
