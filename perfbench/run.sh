#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload flow-ours --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' span files stay under
# .bench_build in the current directory; nothing is fetched from a network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
