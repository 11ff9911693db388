#!/usr/bin/env bash
# Builds the benchmark and cmd/winsimd from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Every build artefact, cache and temporary file stays in .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f internal/harness/testdata/figures_quick_golden.txt ]]; then
	echo "perfbench: run from the repository root; go.mod or the figure golden is missing here" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
(
	cd perfbench
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/winsimd" cyclicwin/cmd/winsimd
)
commit=unknown
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/bin/perfbench" --commit "$commit" --winsimd "$build/bin/winsimd" --out "$build/perfbench" "$@"
