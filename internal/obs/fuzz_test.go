package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzMetricsRoundTrip drives the exposition writer and the strict
// parser from both ends. Fuzzed metric names (kept when valid), help
// text, label values and finite sample values go through every
// instrument the registry has, then WritePrometheus, then ParseMetrics:
// the scrape must parse and give back each sample's value. raw is fed
// to ParseMetrics as a scrape of its own, where it may be rejected but
// must never panic; the seed corpus holds a real exposition and broken
// variants of it.
func FuzzMetricsRoundTrip(f *testing.F) {
	f.Add("pcserved_jobs", "Jobs seen.", "w0001", "w0002", 3.0, -2.5, 0.1, 10.0,
		[]byte("# HELP a_total A.\n# TYPE a_total counter\na_total 1\n"))
	f.Fuzz(func(t *testing.T, name, help, l1, l2 string, v1, v2, b1, b2 float64, raw []byte) {
		ParseMetrics(strings.NewReader(string(raw))) // must not panic

		for _, v := range []float64{v1, v2, b1, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if !ValidMetricName(name) {
			name = "m"
		}
		labels := []string{l1}
		if l2 != l1 {
			labels = append(labels, l2)
		}
		vals := []float64{v1, v2}
		bounds := []float64{min(b1, b2)}
		if b1 != b2 {
			bounds = append(bounds, max(b1, b2))
		}

		r := NewRegistry()
		r.CounterFunc(name+"_c", help, func() float64 { return v1 })
		r.GaugeFunc(name+"_g", help, func() float64 { return v2 })
		r.GaugeVecFunc(name+"_v", help, []string{"worker"}, func() []LabeledValue {
			out := make([]LabeledValue, len(labels))
			for i, l := range labels {
				out[i] = LabeledValue{Labels: []string{l}, Value: vals[i]}
			}
			return out
		})
		hv := r.HistogramVec(name+"_h", help, bounds, "stage")
		for i, l := range labels {
			hv.With(l).Observe(vals[i])
			hv.With(l).Observe(vals[1-i])
		}

		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		ms, err := ParseMetrics(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
		}
		check := func(sample string, labels map[string]string, want float64) {
			t.Helper()
			got, err := ms.LabeledValue(sample, labels)
			if err != nil || got != want {
				t.Fatalf("%s%v = %v (%v), want %v\n%s", sample, labels, got, err, want, b.String())
			}
		}
		check(name+"_c", nil, v1)
		check(name+"_g", nil, v2)
		for i, l := range labels {
			check(name+"_v", map[string]string{"worker": l}, vals[i])
			stage := map[string]string{"stage": l}
			check(name+"_h_count", stage, 2)
			check(name+"_h_sum", stage, vals[i]+vals[1-i])
			for _, u := range bounds {
				n := 0.0
				for _, v := range vals {
					if v <= u {
						n++
					}
				}
				check(name+"_h_bucket", map[string]string{"stage": l, "le": FormatValue(u)}, n)
			}
			check(name+"_h_bucket", map[string]string{"stage": l, "le": "+Inf"}, 2)
		}
	})
}
