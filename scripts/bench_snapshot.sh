#!/usr/bin/env bash
# Bench snapshot: record the devirtualized hot-path trajectory into
# BENCH_hotpath.json and gate the acceptance ratio.
#
# The matrix is the paper's headline hybrid (gskew prophet + filtered
# tagged-gshare critic, 8 future bits, budgets cycling 2/4/8/16 KB) at
# N=1 and N=8 resident predictors, over synthetic gcc and a recorded
# gcc trace, under both engines: the prophet lanes every simulation
# runs on (spec) and the branch-at-a-time Predict/Resolve loop kept in
# bench_test.go as their baseline (generic). Every recorded number is
# the median of -count=5 runs.
#
# The gate is the PAIRED ratio from BenchmarkHotPathSpecOverGeneric —
# one N=8 trace pass per engine back to back each iteration, so
# shared-runner load drift hits both sides equally. The median must be
# >= 1.3x (specialized over generic); the unpaired matrix walls are
# trajectory data only. Allocation gates on the specialized loops live
# in scripts/perfguard.sh, which invokes this script.
#
#   scripts/bench_snapshot.sh [output-file]   # default /tmp/bench-hotpath.txt
set -euo pipefail
cd "$(dirname "$0")/.."

hp=${1:-/tmp/bench-hotpath.txt}
go test -run=NONE -bench='BenchmarkHotPathGcc$|BenchmarkHotPathGccTrace$|BenchmarkHotPathSpecOverGeneric$' \
    -benchtime=5x -count=5 . | tee "$hp"

awk '
/^BenchmarkHotPathGcc\/N=/      { split($1, f, "/"); k = "syn/" f[2] "/" sub3(f[3]); ns[k] = ns[k] " " $3; pp[k] = pp[k] " " $5 }
/^BenchmarkHotPathGccTrace\/N=/ { split($1, f, "/"); k = "trc/" f[2] "/" sub3(f[3]); ns[k] = ns[k] " " $3; pp[k] = pp[k] " " $5 }
/^BenchmarkHotPathSpecOverGeneric/ { ratios = ratios " " $5 }
# sub3 strips the -P GOMAXPROCS suffix go test appends to the leaf
# sub-benchmark name (spec-8 -> spec).
function sub3(s) { sub(/-[0-9]+$/, "", s); return s }
# med returns the median of the -count samples (robust to
# shared-runner noise outliers; insertion sort keeps this portable awk).
function med(s,   a, n, i, j, t) {
    n = split(s, a, " ")
    for (i = 1; i <= n; i++) a[i] += 0
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]
        a[j+1] = t
    }
    return a[int((n + 1) / 2)]
}
function cell(w, n,   ks, kg) {
    ks = w "/N=" n "/spec"; kg = w "/N=" n "/generic"
    printf "    \"N=%d\": {\"spec\": {\"ns_op\": %d, \"ns_per_branch_per_pred\": %.2f}, " \
           "\"generic\": {\"ns_op\": %d, \"ns_per_branch_per_pred\": %.2f}, \"speedup\": %.2f}", \
           n, med(ns[ks]), med(pp[ks]), med(ns[kg]), med(pp[kg]), med(ns[kg]) / med(ns[ks])
}
END {
    if (ratios == "") {
        print "bench-snapshot: BenchmarkHotPathSpecOverGeneric did not run" > "/dev/stderr"
        exit 1
    }
    ratio = med(ratios)
    printf "{\n"
    printf "  \"bench\": \"gcc\",\n"
    printf "  \"window\": {\"warmup_branches\": 20000, \"measure_branches\": 50000},\n"
    printf "  \"config\": \"gskew + tagged gshare (filtered, 8 future bits), budgets 2/4/8/16 KB\",\n"
    printf "  \"synthetic\": {\n"; cell("syn", 1); printf ",\n"; cell("syn", 8); printf "\n  },\n"
    printf "  \"trace\": {\n";     cell("trc", 1); printf ",\n"; cell("trc", 8); printf "\n  },\n"
    printf "  \"paired_generic_over_spec_trace_n8\": %.2f,\n", ratio
    printf "  \"gate\": 1.3,\n"
    printf "  \"specialized_allocs_op\": 0\n"
    printf "}\n"
    if (ratio < 1.3) {
        printf "bench-snapshot: prophet lanes are only %.2fx the Predict/Resolve loop (paired, must be >= 1.3x)\n", ratio > "/dev/stderr"
        exit 1
    }
}' "$hp" > BENCH_hotpath.json

cat BENCH_hotpath.json
echo "bench-snapshot: hot-path trajectory recorded in BENCH_hotpath.json (paired spec/generic gated >= 1.3x)"
