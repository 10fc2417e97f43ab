#!/usr/bin/env bash
# Builds the benchmark program and the real adawave-serve / adawave-router
# binaries from the checkout's sources, then runs the benchmark with the given
# arguments (see perfbench/README.md). Everything the build and the run
# write stays under .bench_build/ at the checkout root: the Go build cache,
# the binaries, server data directories, spill files and traces.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/" ./cmd/adawave-serve ./cmd/adawave-router
exec "$out/bin/perfbench" "$@"
