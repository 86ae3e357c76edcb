package obs

// Job-lifecycle tracing: a span is one timed stage of a job's
// execution (the whole job, one workload, one shard/unit, one
// checkpoint write), with attributes and a parent forming the tree
//
//	job → workload → {warmup, measure, shard, unit, checkpoint}
//
// Spans are deliberately not OpenTelemetry: no context plumbing, no
// samplers, no exporters — just a per-job record cheap enough to keep
// for every job, rendered by GET /v1/jobs/{id}/trace and summarized by
// `pcserved watch`. Correlation with logs and the cluster protocol
// rides on the same job/unit/worker IDs the protocol already carries.

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed stage. End is zero while the span is open.
type Span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"` // 0 = root
	Name   string            `json:"name"`             // "job", "workload", "unit", "warmup", "measure", "checkpoint", "queue"
	Attrs  map[string]string `json:"attrs,omitempty"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end,omitzero"`
}

// Trace is the span tree of one job, in span-start order.
type Trace struct {
	Job   string `json:"job"`
	Spans []Span `json:"spans"`
}

// Tracer records traces for jobs, bounded to the most recently started
// maxJobs traces (older ones are evicted whole). All methods are safe
// for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	maxJobs int
	jobs    map[string]*jobTrace
	order   []string // insertion order, for eviction
	nextID  int
}

type jobTrace struct {
	spans []Span
}

// NewTracer returns a tracer retaining at most maxJobs job traces
// (default 256 if maxJobs <= 0).
func NewTracer(maxJobs int) *Tracer {
	if maxJobs <= 0 {
		maxJobs = 256
	}
	return &Tracer{maxJobs: maxJobs, jobs: make(map[string]*jobTrace)}
}

// StartSpan opens a span under the given parent (0 for a root span)
// and returns its ID for EndSpan and for child spans.
func (t *Tracer) StartSpan(job string, parent int, name string, attrs map[string]string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[job]
	if !ok {
		if len(t.order) >= t.maxJobs {
			delete(t.jobs, t.order[0])
			t.order = t.order[1:]
		}
		jt = &jobTrace{}
		t.jobs[job] = jt
		t.order = append(t.order, job)
	}
	t.nextID++
	jt.spans = append(jt.spans, Span{
		ID:     t.nextID,
		Parent: parent,
		Name:   name,
		Attrs:  attrs,
		Start:  time.Now(),
	})
	return t.nextID
}

// EndSpan closes the span with the given ID. Ending an unknown or
// already-ended span is a no-op (the job trace may have been evicted).
func (t *Tracer) EndSpan(job string, id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[job]
	if !ok {
		return
	}
	for i := range jt.spans {
		if jt.spans[i].ID == id && jt.spans[i].End.IsZero() {
			jt.spans[i].End = time.Now()
			return
		}
	}
}

// Annotate merges attrs into the span with the given ID.
func (t *Tracer) Annotate(job string, id int, attrs map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[job]
	if !ok {
		return
	}
	for i := range jt.spans {
		if jt.spans[i].ID != id {
			continue
		}
		if jt.spans[i].Attrs == nil {
			jt.spans[i].Attrs = make(map[string]string, len(attrs))
		}
		for k, v := range attrs {
			jt.spans[i].Attrs[k] = v
		}
		return
	}
}

// Get returns a copy of the job's trace, spans sorted by start time
// (ties by ID), and whether the job has one.
func (t *Tracer) Get(job string) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[job]
	if !ok {
		return Trace{}, false
	}
	spans := make([]Span, len(jt.spans))
	copy(spans, jt.spans)
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
	return Trace{Job: job, Spans: spans}, true
}
