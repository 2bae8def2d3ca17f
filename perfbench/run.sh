#!/usr/bin/env bash
# Builds the benchmark, and cmd/cmmbench for its simulator probes, from
# this checkout's sources and runs it; every argument is passed through
# (--workload NAME --seed N --seconds S --trace 0|1).
# Build output, the Go build cache, temporary files and scratch state stay
# inside the checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Traced runs take the simulator microbenchmarks from cmmbench itself.
(cd "$root" && go build -o "$out/cmmbench" ./cmd/cmmbench)
exec "$out/perfbench" -root "$root" -work "$out/work" -cmmbench "$out/cmmbench" "$@"
