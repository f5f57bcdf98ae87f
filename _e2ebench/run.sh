#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it.
# Run from the repository root, for one workload:
#
#   bash _e2ebench/run.sh --workload local-pingpong --seed 1 --seconds 30 --trace 0
#
# or, with no arguments, for every workload in turn.
#
# Every build product (Go build cache, binary, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/config" "${out}/tmp"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config" # the go command's telemetry counters
export GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOENV=off

go build -C "${root}/_e2ebench" -o "${out}/e2ebench" .
if [ $# -gt 0 ]; then
	exec "${out}/e2ebench" "$@"
fi
status=0
for w in local-pingpong remote-pingpong edge-mix; do
	"${out}/e2ebench" --workload "${w}" || status=1
done
exit "${status}"
