package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterGaugeExposition renders scrape-time counters and gauges
// over atomics the caller owns, the only way the registry holds them.
func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	var jobs atomic.Uint64
	r.CounterFunc("jobs_total", "Jobs seen.", func() float64 { return float64(jobs.Load()) })
	jobs.Add(3)
	jobs.Add(1)
	var depth atomic.Int64
	r.GaugeFunc("queue_depth", "Queued jobs.", func() float64 { return float64(depth.Load()) })
	depth.Store(7)
	depth.Add(-2)
	r.CounterFunc("derived_total", "Derived.", func() float64 { return 42 })
	r.GaugeVecFunc("worker_busy", "Busy workers.", []string{"worker"}, func() []LabeledValue {
		return []LabeledValue{
			{Labels: []string{"w0002"}, Value: 1},
			{Labels: []string{"w0001"}, Value: 0},
		}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs seen.\n# TYPE jobs_total counter\njobs_total 4\n",
		"# TYPE queue_depth gauge\nqueue_depth 5\n",
		"derived_total 42\n",
		"worker_busy{worker=\"w0001\"} 0\nworker_busy{worker=\"w0002\"} 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// The round trip: our own strict parser accepts everything we emit.
	ms, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if v, err := ms.Value("jobs_total"); err != nil || v != 4 {
		t.Errorf("jobs_total = %v, %v; want 4", v, err)
	}
	if v, err := ms.LabeledValue("worker_busy", map[string]string{"worker": "w0002"}); err != nil || v != 1 {
		t.Errorf("worker_busy{w0002} = %v, %v; want 1", v, err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "X.", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x_total", "X again.", func() float64 { return 0 })
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"", "0abc", "a-b", "a b", "a{b}"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", name)
				}
			}()
			NewRegistry().CounterFunc(name, "bad", func() float64 { return 0 })
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid label name did not panic")
			}
		}()
		NewRegistry().GaugeVecFunc("ok_metric", "x", []string{"__bad"}, func() []LabeledValue { return nil })
	}()
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVecFunc("esc", "Escapes.", []string{"v"}, func() []LabeledValue {
		return []LabeledValue{{Labels: []string{"a\\b\"c\nd"}, Value: 1}}
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{v="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample %q missing in:\n%s", want, b.String())
	}
	ms, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ms.LabeledValue("esc", map[string]string{"v": "a\\b\"c\nd"}); err != nil || v != 1 {
		t.Fatalf("escaped label did not round-trip: %v, %v", v, err)
	}
}

// TestConcurrentRegistry hammers instruments and scrapes from many
// goroutines; run under -race this pins the lock/atomic discipline.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var hits, level atomic.Uint64
	r.CounterFunc("hits_total", "Hits.", func() float64 { return float64(hits.Load()) })
	r.GaugeFunc("level", "Level.", func() float64 { return float64(level.Load()) })
	lat := r.HistogramVec("lat", "Latency.", []float64{0.1, 1, 10}, "op")
	h := lat.With("run")
	hv := r.HistogramVec("stage_lat", "Stage latency.", []float64{0.1, 1}, "stage")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				hits.Add(1)
				level.Add(1)
				h.Observe(float64(i%20) / 2)
				hv.With("warmup").Observe(0.05)
				if i%64 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseMetrics(strings.NewReader(b.String())); err != nil {
						t.Errorf("mid-flight scrape failed strict parse: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ms.Value("hits_total"); err != nil || got != workers*iters {
		t.Errorf("counter = %v (%v), want %d", got, err, workers*iters)
	}
	if got, err := ms.LabeledValue("lat_count", map[string]string{"op": "run"}); err != nil || got != workers*iters {
		t.Errorf("histogram count = %v (%v), want %d", got, err, workers*iters)
	}
}

func TestValidNames(t *testing.T) {
	for name, want := range map[string]bool{
		"a": true, "a_b_c": true, "A9:z": true, "_x": true,
		"": false, "9a": false, "a-b": false,
	} {
		if got := ValidMetricName(name); got != want {
			t.Errorf("ValidMetricName(%q) = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]bool{
		"a": true, "a_b9": true,
		"__meta": false, "le:x": false, "9a": false, "": false,
	} {
		if got := ValidLabelName(name); got != want {
			t.Errorf("ValidLabelName(%q) = %v, want %v", name, got, want)
		}
	}
}
