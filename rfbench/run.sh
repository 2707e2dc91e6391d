#!/usr/bin/env bash
# Builds the benchmark and the rfsimd daemon from this checkout's
# sources into .bench_build/, then runs one benchmark invocation with
# the arguments given. Run it from the repository root:
#
#   bash rfbench/run.sh --workload long-point --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/:
# the Go build cache, the binaries, traces and per-run daemon state.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/rfsimd" ./cmd/rfsimd
go -C rfbench build -o "$out/bin/rfbench" .

# Not exec: the benchmark reads its children's peak memory, which must
# not include the compiler's.
"$out/bin/rfbench" --rfsimd "$out/bin/rfsimd" --out "$out" "$@"
