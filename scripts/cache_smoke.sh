#!/usr/bin/env bash
# Cache smoke wall: exercise the content-addressed result cache through
# the public API — the acceptance criterion of the batch layer is that
# resubmitting an identical job is served from the cache with
# provenance, across a server restart.
#
#   scripts/cache_smoke.sh
#
# Flow:
#   1. compute:  serve -> submit a 2-spec gcc job -> stream to
#      completion. Rows carry no cached marker (fresh compute).
#   2. resubmit: submit the identical job to the same server. Every row
#      must come back cached:true with source_job pointing at job 1 and
#      /metricsz must count the hits.
#   3. restart:  kill the server, restart over the same data dir,
#      resubmit again — the cache is persistent, so rows are again
#      served with provenance to the ORIGINAL computing job.
#   4. results:  GET /v1/results filtered by spec and workload returns
#      the cells, byte-stable against the job rows.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:${SMOKE_PORT:-18937}
url="http://$addr"
work=$(mktemp -d)
. scripts/smoke_lib.sh
trap 'stop_jobs; rm -rf "$work"' EXIT

go build -o "$work/pcserved" ./cmd/pcserved

submit_args=(-bench gcc -spec 2Bc-gskew:8 -spec gshare:8 -critic "tagged gshare:8" \
    -fb 1 -warmup 12000 -measure 25000)

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "cache_smoke: server never became healthy" >&2
    exit 1
}

echo "== compute: first submission fills the cache =="
"$work/pcserved" serve -data "$work/data" -addr "$addr" >"$work/a.log" 2>&1 &
pid=$!
wait_ready
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000000 >"$work/first.ndjson"
if grep -q '"cached":true' "$work/first.ndjson"; then
    echo "cache_smoke: first run claims cache hits" >&2
    exit 1
fi
[ "$(wc -l <"$work/first.ndjson")" -eq 2 ] \
    || { echo "cache_smoke: expected 2 rows (2 specs x 1 bench)" >&2; exit 1; }

echo "== resubmit: identical job is served from the cache =="
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000001 >"$work/second.ndjson"
hits=$(grep -c '"cached":true' "$work/second.ndjson")
[ "$hits" -eq 2 ] || { echo "cache_smoke: resubmit rows not all cached:" >&2; cat "$work/second.ndjson" >&2; exit 1; }
grep -q '"source_job":"j000000"' "$work/second.ndjson" \
    || { echo "cache_smoke: cached rows lack provenance to j000000" >&2; cat "$work/second.ndjson" >&2; exit 1; }
curl -fsS "$url/metricsz" >"$work/metricsz.txt"
grep -q 'pcserved_cache_hits_total 2' "$work/metricsz.txt" \
    || { echo "cache_smoke: /metricsz does not count 2 cache hits" >&2; cat "$work/metricsz.txt" >&2; exit 1; }

echo "== restart: the cache is persistent across server restarts =="
kill $pid; wait $pid 2>/dev/null || true
"$work/pcserved" serve -data "$work/data" -addr "$addr" >"$work/b.log" 2>&1 &
pid=$!
wait_ready
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000002 >"$work/third.ndjson"
hits=$(grep -c '"cached":true' "$work/third.ndjson")
[ "$hits" -eq 2 ] || { echo "cache_smoke: post-restart resubmit not cached:" >&2; cat "$work/third.ndjson" >&2; exit 1; }
grep -q '"source_job":"j000000"' "$work/third.ndjson" \
    || { echo "cache_smoke: post-restart provenance lost" >&2; cat "$work/third.ndjson" >&2; exit 1; }

echo "== results: the cache is queryable through GET /v1/results =="
"$work/pcserved" results -addr "$url" -spec gshare:8 -workload gcc >"$work/cells.ndjson"
[ "$(wc -l <"$work/cells.ndjson")" -eq 1 ] \
    || { echo "cache_smoke: spec+workload filter did not return exactly 1 cell" >&2; cat "$work/cells.ndjson" >&2; exit 1; }
grep -q '"job":"j000000"' "$work/cells.ndjson" \
    || { echo "cache_smoke: cell does not credit the computing job" >&2; cat "$work/cells.ndjson" >&2; exit 1; }
kill $pid; wait $pid 2>/dev/null || true

echo "cache smoke OK: resubmits are cache hits with provenance, across restart"
