#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload put-closed --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"
(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" "$@"
