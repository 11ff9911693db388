#!/usr/bin/env bash
# smoke_winsimd.sh — end-to-end observability and serving smoke test.
#
# Boots winsimd with all three admission tiers armed, submits a traced
# cell job twice (the second answered by the result cache), then
# verifies the observability surfaces this repository exposes:
#   1. GET /metrics serves parseable Prometheus text exposition that
#      includes the per-scheme window-trap counters, the switch-cost
#      histogram, and the admission, queue-cost and cache families.
#   2. The JSON snapshot counts the cached job, records a nonzero
#      latency p50 and conserves jobs: accepted == queued + running +
#      done + failed + canceled.
#   3. GET /v1/jobs/{id}/trace serves parseable Chrome trace_event JSON.
# The cold answer, the cache hit and the trace each carry an
# X-Content-Sha256 header equal to the SHA-256 of their body.
# Finally it runs `winsim -trace` and checks the written file parses.
#
# Requires only the go toolchain plus curl and sha256sum; JSON
# validation uses python3 when available and falls back to grep checks
# otherwise. The grep checks read bodies with whitespace removed, so
# they hold for compact and indented JSON alike.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:8099"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# flat FILE writes FILE.flat: FILE without whitespace. The values the
# checks match (ids, statuses, numbers, key names) contain none. Bodies
# go through a file, not a pipe into grep -q, which would end the pipe
# early and fail it under pipefail.
flat() { tr -d ' \t\r\n' <"$1" >"$1.flat"; }

# check_sum BODY HEADERS fails unless the X-Content-Sha256 header in
# HEADERS (as curl -D writes them) is the SHA-256 of BODY.
check_sum() {
  local want got
  want="$(sed -n 's/^[Xx]-[Cc]ontent-[Ss]ha256: *\([0-9a-f]*\).*/\1/p' "$2")"
  got="$(sha256sum "$1" | cut -d' ' -f1)"
  if [ -z "$want" ] || [ "$want" != "$got" ]; then
    echo "$1: X-Content-Sha256 '$want' does not match the body's SHA-256 $got" >&2
    exit 1
  fi
}

echo "== build =="
go build -o "$TMP/winsimd" ./cmd/winsimd
go build -o "$TMP/winsim" ./cmd/winsim

echo "== boot winsimd on $ADDR with admission tiers armed =="
"$TMP/winsimd" -addr "$ADDR" -workers 2 -maxqueue 512 -clientqueue 256 -maxqueuecost 2000000000 &
SERVER_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" = 50 ]; then echo "winsimd did not come up" >&2; exit 1; fi
  sleep 0.2
done

echo "== submit a traced cell job =="
SPEC='{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":2000,"dict":3001,"trace":true}'
curl -fsS -D "$TMP/submit.hdr" -X POST "$BASE/v1/jobs?wait=1" -H 'Content-Type: application/json' \
  -d "$SPEC" >"$TMP/submit.json"
check_sum "$TMP/submit.json" "$TMP/submit.hdr"
flat "$TMP/submit.json"
# The id is the first member of the first job object.
JOB_ID="$(sed -n 's/^{"jobs":\[{"id":"\([^"]*\)".*/\1/p' "$TMP/submit.json.flat")"
[ -n "$JOB_ID" ] || { echo "no job id in submit response" >&2; exit 1; }
grep -q '"status":"done"' "$TMP/submit.json.flat" || { echo "job not done" >&2; exit 1; }
echo "job $JOB_ID done; checksum matches"

echo "== resubmit it: the result cache answers =="
curl -fsS -D "$TMP/resubmit.hdr" -X POST "$BASE/v1/jobs?wait=1" -H 'Content-Type: application/json' \
  -d "$SPEC" >"$TMP/resubmit.json"
check_sum "$TMP/resubmit.json" "$TMP/resubmit.hdr"
flat "$TMP/resubmit.json"
grep -q '"cache_hit":true' "$TMP/resubmit.json.flat" || { echo "resubmission not a cache hit" >&2; exit 1; }
echo "resubmission answered from the cache; checksum matches"

echo "== scrape /metrics (Prometheus text) =="
curl -fsS "$BASE/metrics" >"$TMP/metrics.prom"
grep -q '^# TYPE winsimd_jobs_total counter$' "$TMP/metrics.prom"
grep -q '^winsim_window_traps_total{scheme="SP",kind="overflow"}' "$TMP/metrics.prom"
grep -q '^winsim_window_traps_total{scheme="SP",kind="underflow"}' "$TMP/metrics.prom"
grep -q '^winsim_switch_cost_cycles_bucket{scheme="SP",le="+Inf"}' "$TMP/metrics.prom"
grep -q '^winsim_switch_cost_cycles_count{scheme="SP"}' "$TMP/metrics.prom"
echo "exposition contains trap counters and switch-cost histogram"
grep -q '^# TYPE winsimd_jobs_cached_total counter$' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="queue_full"}' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="client_quota"}' "$TMP/metrics.prom"
grep -q '^winsimd_admission_rejects_total{reason="cost"}' "$TMP/metrics.prom"
grep -q '^# TYPE winsimd_queue_cost gauge$' "$TMP/metrics.prom"
grep -q '^# TYPE winsimd_cache_coalesced_total counter$' "$TMP/metrics.prom"
echo "exposition contains admission, queue-cost and cache-coalescing families"

echo "== /metrics?format=json: cached job, nonzero p50, job conservation =="
curl -fsS "$BASE/metrics?format=json" >"$TMP/metrics.json"
grep -q '"jobs_done"' "$TMP/metrics.json"
# One cold job and one cache hit: the p50 is the hit's latency, which
# must not be recorded as 0.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["jobs_cached"] >= 1, "resubmission was not counted as cached"
assert m["job_latency_p50_ms"] > 0, "cache-hit latency recorded as 0"
acc = m["jobs_accepted"]
total = m["jobs_queued"] + m["jobs_running"] + m["jobs_done"] + m["jobs_failed"] + m["jobs_canceled"]
assert acc == total, f"conservation broken: accepted={acc} sum={total}"
print(f"jobs_cached={m['jobs_cached']} p50={m['job_latency_p50_ms']}ms conserved({acc})")
EOF
else
  flat "$TMP/metrics.json"
  grep -q '"jobs_cached":[1-9]' "$TMP/metrics.json.flat" || { echo "resubmission was not counted as cached" >&2; exit 1; }
  if grep -q '"job_latency_p50_ms":0[,}]' "$TMP/metrics.json.flat"; then
    echo "cache-hit latency recorded as 0" >&2
    exit 1
  fi
  echo "jobs_cached >= 1 and p50 nonzero (grep check; python3 unavailable)"
fi

echo "== fetch the job trace (Chrome trace_event JSON) =="
curl -fsS -D "$TMP/trace.hdr" "$BASE/v1/jobs/$JOB_ID/trace" >"$TMP/trace.json"
check_sum "$TMP/trace.json" "$TMP/trace.hdr"
grep -q '"traceEvents"' "$TMP/trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/trace.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
evs = t["traceEvents"]
assert evs, "empty traceEvents"
assert any(e["ph"] == "X" for e in evs), "no duration events"
assert any(e["ph"] == "M" for e in evs), "no metadata events"
print(f"trace parses: {len(evs)} events")
EOF
else
  echo "python3 unavailable; grep-level trace check only"
fi

echo "== winsim -trace writes a parseable file =="
"$TMP/winsim" -exp fig11 -windows 4 -trace "$TMP/cli-trace.json" >/dev/null
grep -q '"traceEvents"' "$TMP/cli-trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; t=json.load(open(sys.argv[1])); assert t['traceEvents']" "$TMP/cli-trace.json"
fi

echo "== graceful shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

echo "SMOKE OK"
