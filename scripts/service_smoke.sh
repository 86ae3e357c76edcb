#!/usr/bin/env bash
# Service smoke wall: exercise the pcserved lifecycle end to end, and in
# particular the acceptance criterion of the service layer — killing and
# restarting the server mid-measurement must resume from the last
# checkpoint and produce metrics byte-identical to an uninterrupted run
# of the same job.
#
#   scripts/service_smoke.sh
#
# Flow:
#   1. golden:  serve -> submit a -fast-sized gcc job -> stream to
#      completion -> capture the result rows (NDJSON).
#   2. crash:   fresh data dir, serve with -crash-after-checkpoints 2 ->
#      submit the same job -> the server exits(3) mid-measurement with a
#      checkpoint on disk.
#   3. resume:  restart over the same data dir -> the job resumes (the
#      event stream must carry a "resumed" event) -> capture rows.
#   4. short trace: a trace job whose window outruns the trace fails,
#      and the server still answers /healthz.
#   5. trace memo: two jobs over one recorded trace; the second is
#      served the first one's decoded program (memo hits >= 1).
#   6. assert:  resumed rows are byte-identical to the golden rows.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:${SMOKE_PORT:-18927}
url="http://$addr"
work=$(mktemp -d)
. scripts/smoke_lib.sh
trap 'stop_jobs; rm -rf "$work"' EXIT

go build -o "$work/pcserved" ./cmd/pcserved

# The job: -fast-sized windows (experiments.Fast uses 12k+25k) scaled up
# slightly so the 5k checkpoint interval yields several mid-measurement
# snapshots before the injected crash at #2 (10k of 50k measured).
submit_args=(-bench gcc -prophet 2Bc-gskew:8 -critic "tagged gshare:8" -fb 1 -warmup 12000 -measure 50000)

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "service_smoke: server never became healthy" >&2
    exit 1
}

echo "== golden: uninterrupted run =="
"$work/pcserved" serve -data "$work/dataA" -addr "$addr" -ckpt-every 5000 >"$work/a.log" 2>&1 &
goldpid=$!
wait_ready
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000000 >"$work/golden.ndjson"
kill $goldpid; wait $goldpid 2>/dev/null || true

echo "== crash: server exits mid-measurement after 2 checkpoints =="
"$work/pcserved" serve -data "$work/dataB" -addr "$addr" -ckpt-every 5000 \
    -crash-after-checkpoints 2 >"$work/b1.log" 2>&1 &
crashpid=$!
wait_ready
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" >/dev/null
set +e
wait $crashpid
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "service_smoke: expected crash exit 3, got $code" >&2
    cat "$work/b1.log" >&2
    exit 1
fi
test -s "$work/dataB/ck/j000000.ck" || { echo "service_smoke: no checkpoint on disk after crash" >&2; exit 1; }
grep -q '"state": "running"' "$work/dataB/jobs/j000000.json" \
    || { echo "service_smoke: crashed job not left running" >&2; exit 1; }

echo "== resume: restart over the same data dir =="
"$work/pcserved" serve -data "$work/dataB" -addr "$addr" -ckpt-every 5000 >"$work/b2.log" 2>&1 &
resumepid=$!
wait_ready
"$work/pcserved" watch -addr "$url" -json j000000 >"$work/resume-events.ndjson"
grep -q '"type":"resumed"' "$work/resume-events.ndjson" \
    || { echo "service_smoke: no resumed event in the stream" >&2; cat "$work/resume-events.ndjson" >&2; exit 1; }
"$work/pcserved" result -addr "$url" j000000 >"$work/resumed.ndjson"

echo "== short trace: a window past the trace's end fails the job, not the server =="
go build -o "$work/trace" ./cmd/trace
"$work/trace" record -bench gcc -warmup 2000 -measure 8000 -o "$work/dataB/short.trc" >/dev/null
# The server's default window (30k + 120k) outruns the 10k-event trace.
if "$work/pcserved" submit -addr "$url" -trace short.trc -watch >"$work/short-events.txt"; then
    echo "service_smoke: a trace job past the trace's end did not fail" >&2
    exit 1
fi
grep -q "failed .*150000 branches exceeds the trace's 10000 recorded events" "$work/short-events.txt" \
    || { echo "service_smoke: no window error in the stream" >&2; cat "$work/short-events.txt" >&2; exit 1; }
curl -fsS "$url/healthz" >/dev/null \
    || { echo "service_smoke: server down after the failed trace job" >&2; cat "$work/b2.log" >&2; exit 1; }

echo "== trace memo: a second job over the same trace decodes nothing =="
"$work/trace" record -bench gcc -warmup 2000 -measure 8000 -o "$work/dataB/memo.trc" >/dev/null
for fb in 1 4; do
    "$work/pcserved" submit -addr "$url" -trace memo.trc -warmup 2000 -measure 8000 -fb "$fb" -watch >/dev/null
done
hits=$(curl -fsS "$url/metricsz" | awk '$1 == "pcserved_trace_memo_hits_total" { print $2 }')
if [ "${hits:-0}" -lt 1 ]; then
    echo "service_smoke: pcserved_trace_memo_hits_total is '${hits}' after two jobs over one trace, want >= 1" >&2
    exit 1
fi
kill $resumepid; wait $resumepid 2>/dev/null || true

echo "== assert: resumed rows byte-identical to uninterrupted rows =="
if ! diff -u "$work/golden.ndjson" "$work/resumed.ndjson"; then
    echo "service_smoke: resumed result differs from the uninterrupted run" >&2
    exit 1
fi
echo "service smoke OK: kill-and-restart resume is byte-identical"
