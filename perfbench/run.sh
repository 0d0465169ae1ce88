#!/usr/bin/env bash
# Builds the benchmark program and the vbserve daemon from the checkout's
# sources, then runs one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vbserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/vbserve and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off CGO_ENABLED=0

go build -o "$build/bin/vbserve" ./cmd/vbserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
exec "$build/bin/perfbench" -root "$root" -commit "${commit:-none}" "$@"
