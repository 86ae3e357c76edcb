// Package metrics aggregates per-benchmark simulation results into the
// averaged quantities the paper reports: mean misp/Kuops across
// benchmarks, mispredict-rate reductions, and flush distances.
package metrics

import (
	"fmt"
	"math"

	"prophetcritic/internal/sim"
)

// MeanMispPerKuops is the arithmetic mean of per-benchmark misp/Kuops —
// the paper's "averaged over all benchmarks". With no results there is
// no mean: the answer is NaN, not 0, so that "no data" can never be
// mistaken for a perfect predictor. Format with Fmt, which renders NaN
// as "n/a".
func MeanMispPerKuops(rs []sim.Result) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, r := range rs {
		sum += r.MispPerKuops()
	}
	return sum / float64(len(rs))
}

// PooledMispPerKuops pools all mispredicts over all uops — the aggregate
// metric the abstract's flush-distance numbers imply. NaN when no uops
// were measured (empty input or all-empty windows): zero would conflate
// "no data" with "no mispredicts".
func PooledMispPerKuops(rs []sim.Result) float64 {
	var misp, uops uint64
	for _, r := range rs {
		misp += r.FinalMisp
		uops += r.Uops
	}
	if uops == 0 {
		return math.NaN()
	}
	return float64(misp) / float64(uops) * 1000
}

// PooledUopsPerFlush is the pooled mean distance between mispredict
// flushes in uops. NaN when nothing was measured; +Inf when uops were
// measured but no flush occurred (a genuinely infinite flush distance).
// Both render as "n/a" through Fmt — raw Inf/NaN must not reach
// formatted tables.
func PooledUopsPerFlush(rs []sim.Result) float64 {
	var misp, uops uint64
	for _, r := range rs {
		misp += r.FinalMisp
		uops += r.Uops
	}
	if uops == 0 {
		return math.NaN()
	}
	if misp == 0 {
		return math.Inf(1)
	}
	return float64(uops) / float64(misp)
}

// Reduction returns the percentage reduction from base to improved
// (positive = improvement), as quoted in Figure 7. A zero baseline has
// no defined reduction, so the answer is NaN rather than 0 ("no
// improvement").
func Reduction(base, improved float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (base - improved) / base * 100
}

// Fmt renders v with prec decimals right-aligned in width, rendering NaN
// and infinities as "n/a". Every table formatter printing an aggregate
// metric goes through it so undefined values surface as "n/a" instead of
// a raw NaN/+Inf (or, worse, a fake 0).
func Fmt(v float64, width, prec int) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%*s", width, "n/a")
	}
	return fmt.Sprintf("%*.*f", width, prec, v)
}

// Find returns the result for a named benchmark.
func Find(rs []sim.Result, benchmark string) (sim.Result, error) {
	for _, r := range rs {
		if r.Benchmark == benchmark {
			return r, nil
		}
	}
	return sim.Result{}, fmt.Errorf("metrics: no result for benchmark %q", benchmark)
}
