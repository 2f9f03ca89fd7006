#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and runs
# it with the given arguments:
#
#	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 48 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# directory it is started from (the root of a checkout).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The go command's build cache, temporary files and local telemetry, and
# pprof's temporary files, all live under $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export PPROF_TMPDIR="$out/pprof"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
