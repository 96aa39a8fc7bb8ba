#!/usr/bin/env bash
# Builds ndbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/ndbench/run.sh --workload serve-diagnose --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/cmd/ndbench" && go build -o "$out/ndbench" .)
exec "$out/ndbench" -spans "$out/spans.json" "$@"
