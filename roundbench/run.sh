#!/usr/bin/env bash
# Builds the round benchmark from the sources of the checkout it sits in
# and runs it with the given arguments:
#
#   bash roundbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files (the sim-async spill
# segment) and the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -f fedms.go ]; then
	echo "roundbench: $root holds no fedms sources (go.mod, fedms.go); nothing to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/roundbench" ./roundbench
exec "$out/roundbench" "$@"
