package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1, 10}, "op").With("run")

	// Boundary semantics are le (less-or-equal): an observation exactly
	// on a bound lands in that bucket.
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 5, 10, 11, 1e9} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("strict parse: %v\n%s", err, b.String())
	}

	// Cumulative counts: ≤0.1 → {0.05, 0.1}; ≤1 adds {0.5, 1.0}; ≤10
	// adds {5, 10}; +Inf adds {11, 1e9}.
	run := map[string]string{"op": "run"}
	for le, want := range map[string]float64{"0.1": 2, "1": 4, "10": 6, "+Inf": 8} {
		got, err := ms.LabeledValue("lat_seconds_bucket", map[string]string{"op": "run", "le": le})
		if err != nil || got != want {
			t.Errorf("bucket le=%s = %v, %v; want %v", le, got, err, want)
		}
	}
	if got, _ := ms.LabeledValue("lat_seconds_count", run); got != 8 {
		t.Errorf("count = %v, want 8", got)
	}
	wantSum := 0.05 + 0.1 + 0.5 + 1.0 + 5 + 10 + 11 + 1e9
	if got, _ := ms.LabeledValue("lat_seconds_sum", run); math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("stage_seconds", "Per-stage latency.", []float64{1, 2}, "stage")
	hv.With("warmup").Observe(0.5)
	hv.With("warmup").Observe(3)
	hv.With("measure").Observe(1.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("strict parse: %v\n%s", err, b.String())
	}
	if v, err := ms.LabeledValue("stage_seconds_count", map[string]string{"stage": "warmup"}); err != nil || v != 2 {
		t.Errorf("warmup count = %v, %v; want 2", v, err)
	}
	if v, err := ms.LabeledValue("stage_seconds_bucket", map[string]string{"stage": "measure", "le": "2"}); err != nil || v != 1 {
		t.Errorf("measure le=2 = %v, %v; want 1", v, err)
	}
	// The same child comes back for the same label values.
	if hv.With("warmup") != hv.With("warmup") {
		t.Error("With returned distinct children for identical labels")
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, buckets := range [][]float64{
		{},               // empty
		{1, 1},           // not strictly increasing
		{2, 1},           // decreasing
		{1, math.Inf(1)}, // explicit +Inf
		{math.NaN()},     // NaN
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("buckets %v did not panic", buckets)
				}
			}()
			NewRegistry().HistogramVec("h", "bad", buckets, "stage")
		}()
	}
	// "le" is reserved on histogram vecs.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("le label on HistogramVec did not panic")
			}
		}()
		NewRegistry().HistogramVec("h", "bad", []float64{1}, "le")
	}()
}

func TestHistogramObserveNegativeAndHuge(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("h", "H.", []float64{0, 10}, "stage").With("x")
	h.Observe(-5) // lands in le=0
	h.Observe(math.MaxFloat64)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ms.LabeledValue("h_bucket", map[string]string{"stage": "x", "le": "0"}); v != 1 {
		t.Errorf("le=0 bucket = %v, want 1", v)
	}
	if v, _ := ms.LabeledValue("h_bucket", map[string]string{"stage": "x", "le": "+Inf"}); v != 2 {
		t.Errorf("+Inf bucket = %v, want 2", v)
	}
}
