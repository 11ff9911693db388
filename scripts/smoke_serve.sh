#!/usr/bin/env bash
# smoke_serve.sh — sustained-load serving smoke test.
#
# Boots winsimd with all three admission tiers armed, drives a short
# mixed winsimbench load (cache-hot, cache-cold, traced, faulty, mixed
# spec sizes) against it over HTTP with /metrics scrapers running the
# whole time, and fails on an SLO breach or any dropped metric event
# (winsimbench checks the conservation invariant accepted ==
# queued+running+terminal on every scrape and exits nonzero if it ever
# fails to hold). Then it runs an in-process -findmax ramp and writes
# its trajectory to .bench_build/bench_serve_ci.json, which CI uploads;
# the committed BENCH_serve.json is never touched.
#
# Requires only the go toolchain plus curl; JSON validation uses
# python3 when available and falls back to grep checks otherwise.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:8098"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build =="
go build -o "$TMP/winsimd" ./cmd/winsimd
go build -o "$TMP/winsimbench" ./cmd/winsimbench

echo "== boot winsimd on $ADDR with admission tiers armed =="
"$TMP/winsimd" -addr "$ADDR" -workers 2 -maxqueue 512 -clientqueue 256 -maxqueuecost 2000000000 &
SERVER_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "winsimd did not come up" >&2; exit 1; fi
  sleep 0.2
done

echo "== mixed-load SLO run over HTTP (scrapers hammering /metrics throughout) =="
# Generous ceilings — CI machines are slow and shared; the hard
# assertions are "no dropped metric events" and "no unexpected errors".
"$TMP/winsimbench" -url "$BASE" -mix mixed -rps 100 -duration 3s -concurrency 16 \
  -scrapers 2 -slo-p99 5s -slo-achieve 0.5 -out "$TMP/bench_http.json"
grep -q '"dropped_events": 0' "$TMP/bench_http.json"
grep -q '"slo_ok": true' "$TMP/bench_http.json"

echo "== new serving metric families present after load =="
curl -fsS "$BASE/metrics" >"$TMP/metrics.prom"
grep -q '^# TYPE winsimd_jobs_cached_total counter$' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="queue_full"}' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="client_quota"}' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="cost"}' "$TMP/metrics.prom"
grep -q '^# TYPE winsimd_cache_coalesced_total counter$' "$TMP/metrics.prom"
grep -q '^# TYPE winsimd_queue_cost gauge$' "$TMP/metrics.prom"
echo "admission + cache-coalescing families exported"

echo "== cache-hit latency is recorded nonzero =="
# The mixed run is half cache-hot; a snapshot with cached jobs and a
# zero p50 would mean the hard-0µs regression came back.
curl -fsS "$BASE/metrics?format=json" >"$TMP/metrics.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["jobs_cached"] > 0, "mixed run produced no cache-answered jobs"
assert m["job_latency_p50_ms"] > 0, "cache-hit latency recorded as 0 again"
acc = m["jobs_accepted"]
total = m["jobs_queued"] + m["jobs_running"] + m["jobs_done"] + m["jobs_failed"] + m["jobs_canceled"]
assert acc == total, f"conservation broken: accepted={acc} sum={total}"
print(f"jobs_cached={m['jobs_cached']} p50={m['job_latency_p50_ms']}ms conserved({acc})")
EOF
else
  grep -q '"jobs_cached": [1-9]' "$TMP/metrics.json"
fi

echo "== graceful shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || true

echo "== in-process findmax ramp -> .bench_build/bench_serve_ci.json =="
# Short steps keep CI fast; the committed BENCH_serve.json carries a
# longer calibrated run. The ramp is gated only on clean trajectories
# and on some rate meeting the SLO; the rate itself is machine-dependent.
OUT=.bench_build/bench_serve_ci.json
mkdir -p .bench_build
"$TMP/winsimbench" -findmax -mix hot -rps 500 -rampfactor 2 -stepdur 1s -maxrps 500000 \
  -concurrency 16 -scrapers 2 -slo-p99 100ms -out "$OUT"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" <<'EOF'
import json, sys
f = json.load(open(sys.argv[1]))
run = f["runs"][0]
for step in run["steps"]:
    assert step["dropped_events"] == 0, f"dropped metric events at {step['target_rps']} rps"
    assert step["errors"] == 0, f"unexpected errors at {step['target_rps']} rps"
assert run["max_compliant_rps"] > 0, "no rate satisfied the SLO"
print(f"findmax ok: {run['max_compliant_rps']:.0f} rps within SLO")
EOF
else
  grep -q '"max_compliant_rps": [1-9]' "$OUT"
  if grep -qE '"(dropped_events|errors)": [1-9]' "$OUT"; then
    echo "findmax trajectory has dropped events or errors" >&2
    exit 1
  fi
fi

echo "SMOKE OK"
