#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash semfeedbench/run.sh --workload tableone --seed 0 --seconds 20 --trace 0
# Run it from the root of the repository. The Go build cache, temporary files
# and the binary all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/semfeedbench"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOWORK=off \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/semfeedbench" .
)
exec "$out/semfeedbench" "$@"
