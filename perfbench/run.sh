#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload wire-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary and traced runs' spans.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod XDG_CONFIG_HOME="$build/config"

# A checkout that is not a git work tree records a digest of its Go
# sources and module files instead; the ceiling keeps git from finding a
# repository above the root.
if ! commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="source-sha256:$( (cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
		LC_ALL=C sort -z | xargs -0 -r sha256sum | sha256sum | cut -c1-16) 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --commit "$commit" "$@"
