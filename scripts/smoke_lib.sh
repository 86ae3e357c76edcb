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

# wait_exit PID LOG...: wait up to 60 s for the background job PID to
# exit on its own and return its exit status. A job still running then
# (a crash injection or chaos kill that never fired) fails the script:
# the logs are printed and the EXIT trap's stop_jobs reaps every job.
wait_exit() {
    local pid=$1
    shift
    for _ in $(seq 1 600); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "$(basename "$0"): process $pid still running after 60 s" >&2
        cat "$@" >&2
        exit 1
    fi
    wait "$pid"
}
