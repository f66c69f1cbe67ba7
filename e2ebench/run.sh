#!/usr/bin/env bash
# Builds cfsd and the benchmark from the checkout this is run in, then
# runs one workload:
#
#   bash e2ebench/run.sh --workload converge|query|churn --seed N --seconds S --trace 0|1
#
# Everything the Go toolchain writes (build cache, binaries, span files)
# stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$out/bin"
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" . && go build -o "$out/bin/cfsd" facilitymap/cmd/cfsd) >&2
exec "$out/bin/e2ebench" -cfsd "$out/bin/cfsd" -out "$out" "$@"
