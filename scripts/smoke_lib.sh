# Shared by the pcserved smoke scripts (service, cache, obs, chaos).
# Source it from the repository root after creating $work:
#
#   . scripts/smoke_lib.sh
#   trap 'stop_jobs; rm -rf "$work"' EXIT
#
# stop_jobs stops every background job the script started and waits for
# it: SIGTERM, up to 5 s for a draining server (-drain-timeout defaults
# to 30 s) or a chaos worker to exit, then SIGKILL for any survivor. So
# no process outlives the script, and none has its data directory
# deleted under it.
stop_jobs() {
    local pids
    pids=$(jobs -p) # unquoted below: one argument per pid
    [ -n "$pids" ] || return 0
    kill $pids 2>/dev/null || true
    for _ in $(seq 1 50); do
        # kill -0 succeeds while any of the pids is still alive.
        kill -0 $pids 2>/dev/null || break
        sleep 0.1
    done
    kill -KILL $pids 2>/dev/null || true
    wait $pids 2>/dev/null || true
}
