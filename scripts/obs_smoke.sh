#!/usr/bin/env bash
# Observability smoke wall: boot a server (with the debug listener and
# JSON logs) plus one worker, run a sharded job leased to the worker,
# and validate every telemetry surface end to end:
#
#   - `pcserved watch` renders the per-stage span timing summary
#   - /metricsz parses, carries lifecycle counters, the per-stage
#     duration histogram, and worker-labeled fleet gauges fed by
#     heartbeats
#   - /statusz (debug port) returns the JSON state snapshot
#   - /debug/pprof/ answers on the debug port, and only there
#   - GET /v1/jobs/{id}/trace returns the closed span tree with the
#     worker's unit spans
#   - -log-format json produces structured records with correlation IDs
#
#   scripts/obs_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:${SMOKE_PORT:-18937}
dbg=127.0.0.1:${SMOKE_DEBUG_PORT:-18938}
url="http://$addr"
dbgurl="http://$dbg"
work=$(mktemp -d)
. scripts/smoke_lib.sh
trap 'stop_jobs; rm -rf "$work"' EXIT

go build -o "$work/pcserved" ./cmd/pcserved

die() { echo "obs_smoke: $*" >&2; exit 1; }

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    die "server never became healthy"
}

echo "== boot: server (debug listener + json logs) and one worker =="
"$work/pcserved" serve -data "$work/data" -addr "$addr" -debug-addr "$dbg" \
    -log-format json -ckpt-every 5000 -lease-ttl 1s \
    >"$work/serve.out" 2>"$work/serve.log" &
wait_ready
"$work/pcserved" worker -addr "$url" -name w-obs -log-format json \
    >"$work/worker.out" 2>"$work/worker.log" &

# The worker registers before any work exists; with no live worker the
# server would run the units on its own pool at once.
live=
for _ in $(seq 1 100); do
    live=$(curl -fsS "$url/metricsz" | awk '$1 == "pcserved_workers_live" {print $2}')
    [ "$live" = 1 ] && break
    sleep 0.1
done
[ "$live" = 1 ] || die "worker never registered: $(cat "$work/worker.log")"

echo "== run: a sharded job leased to the worker, watched to completion =="
"$work/pcserved" submit -addr "$url" -bench gcc -prophet 2Bc-gskew:8 \
    -critic "tagged gshare:8" -fb 1 -warmup 12000 -measure 50000 -shards 4 \
    -watch >"$work/watch.out"
grep -q "stage timings:" "$work/watch.out" \
    || die "watch did not render the stage-timing summary: $(cat "$work/watch.out")"
grep -Eq "^  unit " "$work/watch.out" \
    || die "stage-timing summary has no unit line: $(cat "$work/watch.out")"

echo "== scrape: /metricsz lifecycle counters, stage histogram, fleet gauges =="
metric() { awk -v m="$1" '$1 == m {print $2}' "$work/metrics.txt"; }
curl -fsS "$url/metricsz" >"$work/metrics.txt"
[ "$(metric pcserved_jobs_completed_total)" = 1 ] \
    || die "pcserved_jobs_completed_total != 1: $(metric pcserved_jobs_completed_total)"
[ "$(metric pcserved_units_completed_total)" = 4 ] \
    || die "pcserved_units_completed_total != 4: $(metric pcserved_units_completed_total)"
grep -q '^pcserved_stage_duration_seconds_bucket{stage="lease_roundtrip"' "$work/metrics.txt" \
    || die "no lease_roundtrip histogram buckets in /metricsz"
grep -q '^pcserved_stage_duration_seconds_bucket{stage="queue_wait"' "$work/metrics.txt" \
    || die "no queue_wait histogram buckets in /metricsz"
# Fleet gauges arrive with the next heartbeat after the units finish.
fleet_ok=
for _ in $(seq 1 50); do
    curl -fsS "$url/metricsz" >"$work/metrics.txt"
    if awk '/^pcserved_worker_units_done\{worker="/ {if ($2 >= 4) found=1} END {exit !found}' "$work/metrics.txt"; then
        fleet_ok=1; break
    fi
    sleep 0.1
done
[ -n "$fleet_ok" ] || die "fleet gauge pcserved_worker_units_done never reached 4: $(grep ^pcserved_worker "$work/metrics.txt" || true)"
grep -q '^pcserved_worker_sim_branches{worker="' "$work/metrics.txt" \
    || die "no worker-labeled sim branch gauge in /metricsz"

echo "== debug port: /statusz snapshot, /metricsz mirror, pprof index =="
curl -fsS "$dbgurl/statusz" >"$work/statusz.json"
grep -q '"service": "pcserved"' "$work/statusz.json" || die "statusz lacks service name"
grep -q '"uptime_seconds"' "$work/statusz.json" || die "statusz lacks uptime"
grep -q '"goroutines"' "$work/statusz.json" || die "statusz lacks runtime stats"
curl -fsS "$dbgurl/metricsz" >"$work/dbg_metricsz.txt"
grep -q '^pcserved_jobs_completed_total 1$' "$work/dbg_metricsz.txt" \
    || die "debug-port /metricsz does not mirror the registry"
curl -fsS "$dbgurl/debug/pprof/" >/dev/null || die "pprof index unreachable on debug port"
curl -fsS "$url/debug/pprof/" >/dev/null 2>&1 && die "pprof is exposed on the API port"

echo "== trace: GET /v1/jobs/{id}/trace returns the closed span tree =="
curl -fsS "$url/v1/jobs/j000000/trace" >"$work/trace.json"
for span in job workload unit checkpoint; do
    grep -q "\"name\": \"$span\"" "$work/trace.json" || die "trace lacks a $span span"
done
grep -q '"state": "done"' "$work/trace.json" || die "job span not annotated done"

echo "== logs: -log-format json emits structured records with correlation IDs =="
grep -q '"msg":"job done"' "$work/serve.log" || die "no structured 'job done' record in server log"
grep -q '"msg":"worker registered"' "$work/serve.log" || die "no 'worker registered' record in server log"
grep -Eq '"msg":"unit done".*"unit":"j000000\.' "$work/worker.log" \
    || die "worker log lacks unit-correlated 'unit done' records"

echo "obs smoke OK: metrics, statusz, pprof, trace, and structured logs all answer"
