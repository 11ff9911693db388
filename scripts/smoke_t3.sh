#!/usr/bin/env bash
# smoke_t3.sh — T3-scale scheduling smoke test (DESIGN.md §14).
# Verifies under the race detector that the scaled-up scheduler really
# exercises its new machinery:
#   1. TestT3Smoke: a 128-thread preemptive sweep across all schemes and
#      policies on 4 migrating cores, with migration and preemption
#      counters asserted nonzero and every pipeline checksum exact.
#   2. TestParity: the same chain workload agrees across NS/SNP/SP and
#      the Reference oracle at 64 threads under FIFO/WS, plain,
#      preemptive and migrating.
#   3. winsim -exp t3threads renders the crossover figure and winsim
#      -quantum/-policy rewrite cells without breaking a sweep.
#
# Requires only the go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== 128-thread preemptive multi-core sweep under -race =="
go test -race -count=1 -run 'TestT3Smoke' ./internal/harness/

echo "== kernel-level scheme/policy parity under -race (short) =="
go test -race -count=1 -short -run 'TestParity' ./internal/check/

echo "== t3threads figure renders =="
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go run ./cmd/winsim -exp t3threads -windows 8 >"$TMP/t3.out"
grep -q 'T3 crossover' "$TMP/t3.out"
grep -q ' threads' "$TMP/t3.out"
grep -q '     256 ' "$TMP/t3.out"

echo "== -policy/-quantum overrides run a sweep =="
go run ./cmd/winsim -exp t3threads -windows 8 -policy WS -quantum 200 >"$TMP/t3ws.out"
grep -q 'T3 crossover' "$TMP/t3ws.out"

echo "T3 SMOKE OK"
