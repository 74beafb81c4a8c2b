#!/usr/bin/env bash
# Builds bvqd, bvqrouter and the benchmark program from the checkout's
# sources, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-eval --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artefact, Go cache and run
# file stays under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/bvqd || ! -d cmd/bvqrouter || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/bvqd, cmd/bvqrouter)" >&2
	exit 2
fi

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/bin" "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/home"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export HOME="${build}/home"
export XDG_CONFIG_HOME="${build}/home/.config"
export XDG_CACHE_HOME="${build}/home/.cache"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "${build}/bin/" ./cmd/bvqd ./cmd/bvqrouter >&2
(cd perfbench && go build -o "${build}/bin/perfbench" .) >&2

exec "${build}/bin/perfbench" -bin "${build}/bin" -out "${build}/run" "$@"
