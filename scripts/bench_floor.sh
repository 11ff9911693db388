#!/usr/bin/env bash
# Interpreter benchmark regression floor: re-runs the fast path of
# BenchmarkCPUStep and fails if the measured throughput drops more than
# 10% below the committed BENCH_interp.json record. The committed value
# and the fresh measurement come from different machines, so the floor
# fraction is overridable (BENCH_FLOOR_FRAC, default 0.9) and the check
# takes the best of three runs to damp scheduler noise.
set -euo pipefail
cd "$(dirname "$0")/.."

committed=$(sed -n 's/.*"fast_minstr_per_s": *\([0-9.]*\).*/\1/p' BENCH_interp.json | head -1)
if [ -z "$committed" ]; then
    echo "bench_floor: no fast_minstr_per_s in BENCH_interp.json" >&2
    exit 1
fi

out=$(go test -run '^$' -bench 'BenchmarkCPUStep/fast' -benchtime 1s -count 3 ./internal/isa/)
printf '%s\n' "$out"

best=$(printf '%s\n' "$out" | awk '
    /BenchmarkCPUStep\/fast/ {
        for (i = 1; i < NF; i++)
            if ($(i+1) == "Minstr/s" && $i + 0 > m) m = $i + 0
    }
    END { print m + 0 }')
if [ "$best" = "0" ]; then
    echo "bench_floor: could not parse a Minstr/s value from the benchmark output" >&2
    exit 1
fi

frac=${BENCH_FLOOR_FRAC:-0.9}
floor=$(awk -v c="$committed" -v f="$frac" 'BEGIN { printf "%.2f", c * f }')
echo "bench_floor: fast path ${best} Minstr/s, committed ${committed}, floor ${floor} (${frac}x)"
if ! awk -v b="$best" -v fl="$floor" 'BEGIN { exit !(b + 0 >= fl + 0) }'; then
    echo "bench_floor: FAIL — BenchmarkCPUStep/fast at ${best} Minstr/s is below the ${floor} floor" >&2
    exit 1
fi
echo "bench_floor: OK"
