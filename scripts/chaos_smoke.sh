#!/usr/bin/env bash
# Chaos wall for the worker fleet: a server plus two worker nodes, one of
# which is killed mid-unit by fault injection, must finish the job with
# rows byte-identical to a plain run of the same spec (a server with no
# workers, which runs every unit on its own pool).
#
#   scripts/chaos_smoke.sh
#
# Flow:
#   1. golden:  plain serve -> submit a sharded gcc job -> capture rows.
#   2. cluster: serve with short leases; start two workers, one
#      with -chaos kill-on-lease=2 (it dies mid-unit after uploading a
#      snapshot, exit code 7), the other healthy.
#   3. submit the same job; the healthy worker absorbs the re-issued
#      units and the job completes.
#   4. assert: cluster rows byte-identical to the golden rows, and the
#      recovery machinery visible in /metricsz (units leased, lease
#      expired, unit retried).
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:${CHAOS_PORT:-18937}
url="http://$addr"
work=$(mktemp -d)
. scripts/smoke_lib.sh
trap 'stop_jobs; rm -rf "$work"' EXIT

go build -o "$work/pcserved" ./cmd/pcserved

submit_args=(-bench gcc -prophet 2Bc-gskew:8 -critic "tagged gshare:8" -fb 1 \
    -warmup 12000 -measure 48000 -shards 4)

wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "chaos_smoke: server never became healthy" >&2
    exit 1
}

metric() {
    curl -fsS "$url/metricsz" | awk -v m="$1" '$1 == m { print $2 }'
}

echo "== golden: plain run (no workers) =="
"$work/pcserved" serve -data "$work/dataA" -addr "$addr" -ckpt-every 5000 >"$work/a.log" 2>&1 &
goldpid=$!
wait_ready
"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000000 >"$work/golden.ndjson"
kill $goldpid; wait $goldpid 2>/dev/null || true

echo "== cluster: coordinator + 2 workers, one chaos-killed mid-unit =="
"$work/pcserved" serve -data "$work/dataB" -addr "$addr" -ckpt-every 5000 \
    -lease-ttl 500ms >"$work/b.log" 2>&1 &
coordpid=$!
wait_ready

"$work/pcserved" worker -addr "$url" -name chaos-victim \
    -chaos kill-on-lease=2 >"$work/w1.log" 2>&1 &
victimpid=$!
"$work/pcserved" worker -addr "$url" -name survivor >"$work/w2.log" 2>&1 &
survivorpid=$!

# Both workers registered before any work exists, so the victim is
# guaranteed a share of the early leases.
for _ in $(seq 1 100); do
    [ "$(metric pcserved_workers_live)" = 2 ] && break
    sleep 0.1
done
[ "$(metric pcserved_workers_live)" = 2 ] \
    || { echo "chaos_smoke: workers never registered" >&2; cat "$work/w1.log" "$work/w2.log" >&2; exit 1; }

"$work/pcserved" submit -addr "$url" "${submit_args[@]}" -watch >/dev/null
"$work/pcserved" result -addr "$url" j000000 >"$work/cluster.ndjson"

victimcode=0
wait_exit $victimpid "$work/w1.log" "$work/w2.log" "$work/b.log" || victimcode=$?
if [ "$victimcode" -ne 7 ]; then
    echo "chaos_smoke: expected chaos kill exit 7 from the victim, got $victimcode" >&2
    cat "$work/w1.log" >&2
    exit 1
fi

echo "== assert: cluster-under-chaos rows byte-identical to plain run =="
if ! diff -u "$work/golden.ndjson" "$work/cluster.ndjson"; then
    echo "chaos_smoke: cluster result differs from the plain run" >&2
    exit 1
fi

for m in pcserved_units_leased_total pcserved_leases_expired_total pcserved_units_retried_total; do
    v=$(metric "$m")
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "chaos_smoke: $m = '${v:-missing}', want > 0" >&2
        curl -fsS "$url/metricsz" >&2
        exit 1
    fi
    echo "$m $v"
done

kill $survivorpid $coordpid 2>/dev/null; wait $survivorpid $coordpid 2>/dev/null || true
echo "chaos smoke OK: worker killed mid-unit, job completed byte-identical"
