package service

import (
	"context"
	"sync"

	"prophetcritic/internal/core"
	"prophetcritic/internal/sim"
)

// Event is one line of a job's NDJSON event stream. Sequence numbers are
// per-job and strictly increasing; the stream ends after a terminal
// event ("done" or "failed"). Event history is held in memory only — a
// restarted server starts a resumed job's stream afresh (beginning with
// "queued"/"resumed"), while results and job state live in the store.
type Event struct {
	Seq      int    `json:"seq"`
	Type     string `json:"type"` // queued|started|resumed|progress|result|done|failed
	Job      string `json:"job"`
	Workload string `json:"workload,omitempty"`
	// Done/Total report measured-branch progress through the current
	// workload: Done is the measured branches so far, summed over its
	// windows — finished windows in full, windows running on the
	// scheduler up to their latest snapshot in this run.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Row carries the partial metrics on progress events and the final
	// workload metrics on result events; Rows carries every workload's
	// row on the terminal done event.
	Row   *ResultRow  `json:"row,omitempty"`
	Rows  []ResultRow `json:"rows,omitempty"`
	Error string      `json:"error,omitempty"`
}

// terminal reports whether the event ends the stream.
func (e Event) terminal() bool { return e.Type == "done" || e.Type == "failed" }

// ResultRow is the JSON rendering of one workload's measured metrics —
// the unit the service's bit-identical resume guarantee is stated over.
// Counter fields are exact integers; derived floats are computed from
// them, so byte-identical counters give byte-identical rows.
type ResultRow struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"`
	Config    string `json:"config"`

	// Spec is the prophet spec (as submitted) the row answers; CellKey is
	// the canonical cache-cell identity it was stored or served under.
	// Cached rows carry provenance: Cached true and SourceJob naming the
	// job whose simulation originally produced the cell.
	Spec      string `json:"spec,omitempty"`
	CellKey   string `json:"cell_key,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	SourceJob string `json:"source_job,omitempty"`

	Branches    uint64                    `json:"branches"`
	Uops        uint64                    `json:"uops"`
	ProphetMisp uint64                    `json:"prophet_misp"`
	FinalMisp   uint64                    `json:"final_misp"`
	Critiques   [core.NumCritiques]uint64 `json:"critiques"`

	ProphetMispPerKuops float64 `json:"prophet_misp_per_kuops"`
	MispPerKuops        float64 `json:"misp_per_kuops"`
	MispRate            float64 `json:"misp_rate"`
	UopsPerFlush        float64 `json:"uops_per_flush"`
}

func rowFromResult(r sim.Result) ResultRow {
	return ResultRow{
		Benchmark:           r.Benchmark,
		Suite:               r.Suite,
		Config:              r.Config,
		Branches:            r.Branches,
		Uops:                r.Uops,
		ProphetMisp:         r.ProphetMisp,
		FinalMisp:           r.FinalMisp,
		Critiques:           r.Critiques,
		ProphetMispPerKuops: r.ProphetMispPerKuops(),
		MispPerKuops:        r.MispPerKuops(),
		MispRate:            r.MispRate(),
		UopsPerFlush:        r.UopsPerFlush(),
	}
}

// EventLog is one job's append-only event history plus a broadcast
// channel stream readers wait on. Readers are cursors into the history
// (Snapshot/Wait), so no reader can lag or drop events.
type EventLog struct {
	mu      sync.Mutex
	events  []Event
	changed chan struct{} // closed and replaced on every append
	ended   bool          // terminal event appended, or server stopping
}

func newEventLog() *EventLog {
	return &EventLog{changed: make(chan struct{})}
}

// append stamps the next sequence number and wakes all waiters.
func (l *EventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended {
		return // nothing may follow a terminal event
	}
	e.Seq = len(l.events) + 1
	l.events = append(l.events, e)
	if e.terminal() {
		l.ended = true
	}
	close(l.changed)
	l.changed = make(chan struct{})
}

// Snapshot returns the events after cursor `from` (0 = start) and
// whether the stream has ended.
func (l *EventLog) Snapshot(from int) ([]Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from > len(l.events) {
		from = len(l.events)
	}
	return l.events[from:], l.ended
}

// Wait blocks until the log grows past n events, the stream ends, or ctx
// is done.
func (l *EventLog) Wait(ctx context.Context, n int) {
	for {
		l.mu.Lock()
		if len(l.events) > n || l.ended {
			l.mu.Unlock()
			return
		}
		ch := l.changed
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return
		}
	}
}

// end closes the stream without a terminal job event (server shutdown);
// readers drain what exists and return.
func (l *EventLog) end() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ended {
		l.ended = true
		close(l.changed)
		l.changed = make(chan struct{})
	}
}
