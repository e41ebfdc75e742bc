#!/usr/bin/env bash
# Builds prionnd and the benchmark program from the checkout this script
# lives in, then runs one benchmark workload against the fresh prionnd:
#
#   bash perfbench/run.sh --workload submit-f32 --seed 1 --seconds 40 --trace 0
#
# Build output, the Go build cache and per-run files stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/prionnd" ./cmd/prionnd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -prionnd "$out/prionnd" -dir "$out/run" "$@"
