// Package obs is the repo's stdlib-only telemetry layer: a typed
// metrics registry with strict Prometheus text exposition, lightweight
// job-lifecycle tracing, and slog-based structured logging with
// correlation IDs. It exists so the service can measure itself — queue
// wait, stage latency, fleet liveness, simulator throughput — without
// pulling in a client library the container does not have.
//
// Design constraints, in order:
//
//   - Zero interference with the simulator hot path. The registry
//     owns no counters: CounterFunc, GaugeFunc and GaugeVecFunc read
//     atomics their owners keep, at scrape time, and a histogram
//     observation is a few atomic adds. Anything touched per-branch
//     must be a sampled counter flush (see internal/sim's obs
//     instrumentation), and the hotpath analyzer enforces it.
//   - Scrape-safe under -race. Every read path takes consistent
//     snapshots of atomic state; WritePrometheus may run concurrently
//     with any number of writers.
//   - Strict output. The exposition writer emits Prometheus text
//     format 0.0.4 (# HELP/# TYPE, escaped labels, canonical float
//     formatting) and the package ships its own strict parser
//     (ParseMetrics) used by tests and the observability smoke wall to
//     prove the round trip.
//
// Registries are instances, not process globals: the scheduler, the
// worker, and every test build their own, so duplicate registration is
// a bug (and panics) rather than a cross-test hazard.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LabelPair is one name="value" pair on a sample.
type LabelPair struct {
	Name, Value string
}

// LabeledValue is one sample produced by a GaugeVecFunc callback: label
// values in the order of the vec's label names, plus the value.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// collector emits the current samples of one instrument. suffix is
// appended to the family name ("" for scalar samples, "_bucket",
// "_sum", "_count" for histograms).
type collector interface {
	collect(emit func(suffix string, labels []LabelPair, value float64))
}

// family is one named metric family: a type, help text, and the
// instrument registered under the name.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", or "histogram"
	c    collector
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds a family, panicking on an invalid or duplicate name —
// a duplicate registration is a wiring bug, never a runtime condition.
func (r *Registry) register(name, help, typ string, c collector) {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of metric %q", name))
	}
	r.fams[name] = &family{name: name, help: help, typ: typ, c: c}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters owned elsewhere.
// fn must be monotonic and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", funcCollector(fn))
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", funcCollector(fn))
}

// GaugeVecFunc registers a labeled gauge family whose full sample set
// is produced by fn at scrape time — the fleet-aggregation bridge: the
// coordinator re-exports each worker's heartbeat snapshot under a
// worker label without owning per-worker instrument lifetimes. Every
// LabeledValue must carry exactly len(labelNames) label values.
func (r *Registry) GaugeVecFunc(name, help string, labelNames []string, fn func() []LabeledValue) {
	for _, l := range labelNames {
		if !ValidLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.register(name, help, "gauge", &vecFuncCollector{names: labelNames, fn: fn})
}

// funcCollector adapts a scrape-time callback.
type funcCollector func() float64

func (f funcCollector) collect(emit func(string, []LabelPair, float64)) {
	emit("", nil, f())
}

// vecFuncCollector adapts a scrape-time labeled callback. Samples are
// emitted sorted by label values so exposition is deterministic.
type vecFuncCollector struct {
	names []string
	fn    func() []LabeledValue
}

func (v *vecFuncCollector) collect(emit func(string, []LabelPair, float64)) {
	vals := v.fn()
	sort.Slice(vals, func(i, j int) bool {
		a, b := vals[i].Labels, vals[j].Labels
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	for _, lv := range vals {
		if len(lv.Labels) != len(v.names) {
			panic(fmt.Sprintf("obs: GaugeVecFunc sample has %d label values, want %d", len(lv.Labels), len(v.names)))
		}
		pairs := make([]LabelPair, len(v.names))
		for i, n := range v.names {
			pairs[i] = LabelPair{Name: n, Value: lv.Labels[i]}
		}
		emit("", pairs, lv.Value)
	}
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// families sorted by name, samples in deterministic order within each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.c.collect(func(suffix string, labels []LabelPair, value float64) {
			b.WriteString(f.name)
			b.WriteString(suffix)
			if len(labels) > 0 {
				b.WriteByte('{')
				for i, lp := range labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(lp.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(lp.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(FormatValue(value))
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in text
// exposition format — the /metricsz endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// FormatValue renders a sample value the way the exposition format
// spells it: shortest round-trip float, with +Inf/-Inf/NaN literals.
func FormatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*
// and is not a reserved double-underscore name.
func ValidLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
