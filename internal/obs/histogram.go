package obs

// Fixed-bucket histograms. Buckets are chosen at registration and never
// change, so Observe is a linear scan over a dozen upper bounds plus
// three atomic adds — cheap enough for every service-layer stage
// timing, and deliberately NOT cheap enough for the simulator's
// per-branch path (the hotpath analyzer's obsbad golden pins that).
//
// Scrape consistency: collectWith reads every bucket slot once into a
// local snapshot and derives _count from that same snapshot, so within
// one exposition the cumulative buckets are non-decreasing and the +Inf
// bucket always equals _count even under concurrent Observe calls.
// _sum is tracked separately (CAS on float bits) and may run a few
// observations ahead of or behind the buckets mid-write; the strict
// parser checks structural invariants, not cross-atomic exactness.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket set, in seconds: 1ms..60s.
// It covers everything the service times, from a checkpoint fsync to a
// full measurement stage on a slow worker.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is one child of a HistogramVec: a fixed-bucket histogram
// for one set of label values. Observe is safe for concurrent use.
type Histogram struct {
	upper   []float64 // strictly increasing finite upper bounds
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// collectWith emits the histogram's samples with base label pairs
// prepended (the child's labels; base must not contain "le").
func (h *Histogram) collectWith(base []LabelPair, emit func(string, []LabelPair, float64)) {
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	var cum uint64
	for i, u := range h.upper {
		cum += counts[i]
		emit("_bucket", appendLabel(base, "le", FormatValue(u)), float64(cum))
	}
	cum += counts[len(counts)-1]
	emit("_bucket", appendLabel(base, "le", "+Inf"), float64(cum))
	emit("_sum", base, h.Sum())
	emit("_count", base, float64(cum))
}

func appendLabel(base []LabelPair, name, value string) []LabelPair {
	out := make([]LabelPair, 0, len(base)+1)
	out = append(out, base...)
	return append(out, LabelPair{Name: name, Value: value})
}

// HistogramVec is a histogram family partitioned by a fixed set of
// label names — the service's per-stage latency metric. Children are
// created on first use and live for the registry's lifetime.
type HistogramVec struct {
	name    string
	upper   []float64
	labels  []string
	mu      sync.Mutex
	kids    map[string]*Histogram
	kidLbls map[string][]LabelPair
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label", name))
	}
	for _, l := range labelNames {
		if !ValidLabelName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i, u := range buckets {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			panic(fmt.Sprintf("obs: histogram %q bucket %v must be finite (+Inf is implicit)", name, u))
		}
		if i > 0 && buckets[i-1] >= u {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly increasing", name))
		}
	}
	v := &HistogramVec{
		name:    name,
		upper:   slices.Clone(buckets),
		labels:  labelNames,
		kids:    make(map[string]*Histogram),
		kidLbls: make(map[string][]LabelPair),
	}
	r.register(name, help, "histogram", v)
	return v
}

// With returns the child histogram for the given label values (one per
// label name, in order), creating it on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", v.name, len(labelValues), len(v.labels)))
	}
	key := labelKey(labelValues)
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.kids[key]; ok {
		return h
	}
	h := &Histogram{upper: v.upper, buckets: make([]atomic.Uint64, len(v.upper)+1)}
	pairs := make([]LabelPair, len(v.labels))
	for i, n := range v.labels {
		pairs[i] = LabelPair{Name: n, Value: labelValues[i]}
	}
	v.kids[key] = h
	v.kidLbls[key] = pairs
	return h
}

func (v *HistogramVec) collect(emit func(string, []LabelPair, float64)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type kid struct {
		h     *Histogram
		pairs []LabelPair
	}
	kids := make([]kid, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, kid{v.kids[k], v.kidLbls[k]})
	}
	v.mu.Unlock()
	for _, k := range kids {
		k.h.collectWith(k.pairs, emit)
	}
}

// labelKey builds a map key from label values with an unambiguous
// separator (label values may themselves contain commas).
func labelKey(vals []string) string {
	var b []byte
	for _, v := range vals {
		b = append(b, byte(0xff))
		b = append(b, v...)
	}
	return string(b)
}
