package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/obs"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// Config configures a Scheduler.
type Config struct {
	// DataDir is the durability root: job records under jobs/,
	// checkpoints under ck/. Required.
	DataDir string
	// QueueCap bounds the number of queued jobs (default 64).
	QueueCap int
	// PerClient bounds one client's queued+running jobs (default 16).
	PerClient int
	// Workers is the number of jobs run concurrently (default 1: one job
	// at a time, each fanning its workloads/shards out on the shared
	// worker pool — the batching regime the pool is sized for).
	Workers int
	// CheckpointEvery is the measured-branch interval between hybrid
	// snapshots and progress events (default 20000).
	CheckpointEvery int
	// TraceDir is where job trace workloads are resolved (default
	// DataDir).
	TraceDir string

	// CrashAfterCheckpoints, when > 0, invokes Crash after that many
	// checkpoint writes — fault injection for the kill-and-restart
	// smoke tests. Crash runs on whatever goroutine wrote the
	// checkpoint; cmd/pcserved wires it to os.Exit.
	CrashAfterCheckpoints int
	Crash                 func()

	// Every workload's windows run as coordinator units: registered
	// workers lease them, and the coordinator's own pool runs the rest.
	//
	// LeaseTTL bounds one unit lease; an unrenewed lease past its
	// deadline is re-issued (default 5s, at least 10ms). Mid-unit
	// checkpoint uploads renew the lease. It is the one fleet timing
	// setting: the worker heartbeat, the dead-worker deadline, the
	// re-issue backoff and the poll interval all derive from it
	// (timings).
	LeaseTTL time.Duration

	// Logger receives structured lifecycle records (job admissions,
	// state transitions, fleet events), stamped with job/unit/worker
	// correlation IDs by the obs handler. nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.PerClient == 0 {
		c.PerClient = 16
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 20_000
	}
	if c.TraceDir == "" {
		c.TraceDir = c.DataDir
	}
	if c.Crash == nil {
		c.Crash = func() { panic("service: checkpoint crash injection fired with no Crash hook") }
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 5 * time.Second
	}
	return c
}

// validate rejects settings no default can mend: a negative count, which
// would wedge the queue or the job loop, or a lease TTL too short to
// derive positive fleet timings from. Call it after withDefaults.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"QueueCap", c.QueueCap},
		{"PerClient", c.PerClient},
		{"Workers", c.Workers},
		{"CheckpointEvery", c.CheckpointEvery},
		{"CrashAfterCheckpoints", c.CrashAfterCheckpoints},
	} {
		if f.v < 0 {
			return fmt.Errorf("service: %s is %d, want >= 0 (0: the default)", f.name, f.v)
		}
	}
	if c.LeaseTTL < minLeaseTTL {
		return fmt.Errorf("service: LeaseTTL is %v, want >= %v", c.LeaseTTL, minLeaseTTL)
	}
	return nil
}

// Metrics is a point-in-time snapshot of the scheduler's operational
// counters, rendered by the server's /metricsz endpoint.
type Metrics struct {
	Submitted          uint64
	Completed          uint64
	Failed             uint64
	Rejected           uint64
	ResumedJobs        uint64
	CheckpointsWritten uint64
	QueueDepth         int
	Running            int
	Draining           bool

	// Result-cache counters: cell lookups during job execution (hits are
	// rows answered without simulating) and the persisted store size.
	CacheHits    uint64
	CacheMisses  uint64
	CacheStores  uint64
	CacheEntries int
	CacheBytes   int64
}

// errStopped reports that a job was interrupted by drain or kill; the
// job record stays "running" on disk and is resumed on the next start.
var errStopped = errors.New("service: scheduler stopping")

// Scheduler owns the job queue, the worker goroutines, durability, and
// the per-job event logs. One Scheduler per data directory.
type Scheduler struct {
	cfg    Config
	st     *store
	q      *jobQueue
	co     *coordinator
	cache  *resultCache
	traces *traceMemo

	mu     sync.Mutex
	jobs   map[string]*Job
	logs   map[string]*EventLog
	nextID int

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	log      *slog.Logger
	reg      *obs.Registry
	tracer   *obs.Tracer
	stageDur *obs.HistogramVec
	spanMu   sync.Mutex
	spans    map[string]*jobSpans

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	resumed   atomic.Uint64
	ckWrites  atomic.Uint64
	crashLeft atomic.Int64
	running   atomic.Int64
	draining  atomic.Bool

	// persistErrs counts terminal job records that failed to persist
	// (the job still finishes in memory; a restart re-runs it).
	persistErrs atomic.Uint64
}

// New opens (or creates) the data directory, loads every persisted job,
// and re-enqueues unfinished ones: queued jobs restart from scratch,
// running jobs resume from their last checkpoint. Call Start to begin
// executing.
func New(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st, err := newStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	cache, err := newResultCache(filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:    cfg,
		st:     st,
		q:      newJobQueue(cfg.QueueCap, cfg.PerClient),
		co:     newCoordinator(cfg),
		cache:  cache,
		traces: newTraceMemo(traceMemoCap),
		jobs:   make(map[string]*Job),
		logs:   make(map[string]*EventLog),
		ctx:    ctx,
		stop:   cancel,
		log:    cfg.Logger,
	}
	s.crashLeft.Store(int64(cfg.CrashAfterCheckpoints))
	s.initObs()

	jobs, err := st.loadJobs()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, j := range jobs {
		// Records written before the multi-spec schema carry only the
		// single-spec alias; fold it so resume arithmetic (rows per
		// workload = len(Specs)) holds for every loaded job.
		j.Spec = j.Spec.normalized()
		s.jobs[j.ID] = j
		s.logs[j.ID] = newEventLog()
		if n := idNumber(j.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		switch j.State {
		case StateQueued, StateRunning:
			if j.State == StateRunning {
				j.Resumed = true
				j.State = StateQueued
				if err := st.saveJob(j); err != nil {
					cancel()
					return nil, err
				}
			}
			s.emit(j.ID, Event{Type: "queued", Job: j.ID})
			if err := s.q.Enqueue(j, true); err != nil {
				cancel()
				return nil, err
			}
		case StateDone:
			// Seed the fresh event log with the terminal event so a
			// post-restart stream still ends with the job's rows.
			s.emit(j.ID, Event{Type: "done", Job: j.ID, Rows: j.Rows})
		case StateFailed:
			s.emit(j.ID, Event{Type: "failed", Job: j.ID, Error: j.Error})
		}
	}
	return s, nil
}

func idNumber(id string) int {
	var n int
	fmt.Sscanf(id, "j%d", &n)
	return n
}

// Start launches the worker goroutines.
func (s *Scheduler) Start() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.q.Dequeue(s.ctx)
				if !ok {
					return
				}
				s.runJob(j)
			}
		}()
	}
}

// Submit validates, persists, and enqueues a job.
func (s *Scheduler) Submit(spec JobSpec) (Job, error) {
	if s.draining.Load() {
		return Job{}, ErrDraining
	}
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		return Job{}, err
	}
	refs, err := spec.resolveWorkloads(s.cfg.TraceDir)
	if err != nil {
		return Job{}, err
	}

	s.mu.Lock()
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &Job{ID: id, Spec: spec, Workloads: refs, State: StateQueued}
	s.jobs[id] = j
	s.logs[id] = newEventLog()
	s.mu.Unlock()

	// Persist before enqueueing: a worker may pick the job up the
	// instant it is queued, and every later transition assumes the
	// record exists. The returned copy is taken before Enqueue for the
	// same reason — afterwards a worker may already be mutating the job.
	if err := s.st.saveJob(j); err != nil {
		s.dropJob(id)
		return Job{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	cp := *j
	// The "queued" event goes out before Enqueue: the instant the job is
	// queued a worker may emit "started", and the stream's documented
	// order (queued first) must not race that. dropJob discards the log
	// if admission then fails. The trace's job+queue spans open here for
	// the same reason — a worker may start the job immediately.
	s.emit(id, Event{Type: "queued", Job: id})
	s.traceSubmit(id)
	if err := s.q.Enqueue(j, false); err != nil {
		s.rejected.Add(1)
		s.dropJob(id)
		return Job{}, err
	}
	s.submitted.Add(1)
	s.log.InfoContext(obs.WithJob(context.Background(), id), "job admitted",
		"client", spec.Client, "specs", len(spec.Specs), "workloads", len(refs))
	return cp, nil
}

// dropJob removes a job that failed admission.
func (s *Scheduler) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	delete(s.logs, id)
	s.mu.Unlock()
	s.traceJobEnd(id, "rejected")
	os.Remove(s.st.jobPath(id))
}

// JobSnapshot returns a copy of one job's current state.
func (s *Scheduler) JobSnapshot(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	cp := *j
	cp.Rows = append([]ResultRow(nil), j.Rows...)
	return cp, true
}

// Jobs returns a copy of every job, ordered by ID.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.JobSnapshot(id); ok {
			out = append(out, j)
		}
	}
	return out
}

// Events returns the event log for one job.
func (s *Scheduler) Events(id string) (*EventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[id]
	return l, ok
}

// Metrics returns the operational counter snapshot.
func (s *Scheduler) Metrics() Metrics {
	cs := s.cache.stats()
	return Metrics{
		Submitted:          s.submitted.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Rejected:           s.rejected.Load(),
		ResumedJobs:        s.resumed.Load(),
		CheckpointsWritten: s.ckWrites.Load(),
		QueueDepth:         s.q.Depth(),
		Running:            int(s.running.Load()),
		Draining:           s.draining.Load(),
		CacheHits:          cs.hits,
		CacheMisses:        cs.misses,
		CacheStores:        cs.stores,
		CacheEntries:       cs.entries,
		CacheBytes:         cs.bytes,
	}
}

// CacheResults lists cached result cells matching the optional spec and
// workload filters — the GET /v1/results surface.
func (s *Scheduler) CacheResults(spec, workload string) []CacheEntry {
	return s.cache.list(spec, workload)
}

// Drain gracefully stops the scheduler: admissions are rejected, running
// jobs checkpoint at their next interval boundary and stop (their
// records stay "running" for the next start to resume), and Drain
// returns once every worker has parked or ctx expires.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Close()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
	s.endLogs()
	return err
}

// Kill stops the scheduler abruptly, persisting nothing beyond the
// checkpoints already written — the in-process equivalent of the
// process dying, used by the restart-resume tests.
func (s *Scheduler) Kill() {
	s.draining.Store(true)
	s.q.Close()
	s.stop()
	s.wg.Wait()
	s.endLogs()
}

func (s *Scheduler) endLogs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		l.end()
	}
}

func (s *Scheduler) emit(id string, e Event) {
	s.mu.Lock()
	l, ok := s.logs[id]
	s.mu.Unlock()
	if ok {
		l.append(e)
	}
}

// setState persists a job state transition.
func (s *Scheduler) setState(j *Job, state string) error {
	s.mu.Lock()
	j.State = state
	s.mu.Unlock()
	return s.st.saveJob(j)
}

// finishJob publishes a job's terminal state (StateDone, or StateFailed
// with err). Everything a client may check once it sees that state
// happens first: the trace closes, the completed/failed counter moves,
// a copy of the record with the terminal state is persisted, and the
// terminal event ends the stream. The in-memory state flips last, in
// the same s.mu critical section that appends the terminal event, so a
// poller that sees the terminal state sees all of the above, and a
// stream reader that sees the terminal event and then asks for the job
// finds it terminal too.
func (s *Scheduler) finishJob(j *Job, state string, err error) {
	jctx := obs.WithJob(context.Background(), j.ID)
	s.traceJobEnd(j.ID, state)
	if state == StateDone {
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}

	s.mu.Lock()
	rec := *j
	rec.Rows = append([]ResultRow(nil), j.Rows...)
	s.mu.Unlock()
	rec.State = state
	ev := Event{Type: "done", Job: j.ID, Rows: rec.Rows}
	if err != nil {
		rec.Error = err.Error()
		ev = Event{Type: "failed", Job: j.ID, Error: rec.Error}
	}
	if perr := s.st.saveJob(&rec); perr != nil {
		s.persistErrs.Add(1)
		s.log.ErrorContext(jctx, "persisting terminal job record", "state", state, "err", perr)
	}
	s.st.removeCheckpoint(j.ID)
	s.q.Release(j.Spec.Client)

	s.mu.Lock()
	if l, ok := s.logs[j.ID]; ok {
		l.append(ev)
	}
	j.State, j.Error = rec.State, rec.Error
	s.mu.Unlock()

	if err != nil {
		s.log.ErrorContext(jctx, "job failed", "err", err)
	} else {
		s.log.InfoContext(jctx, "job done", "rows", len(rec.Rows))
	}
}

// RetryAfterSeconds estimates how long a rejected submitter should wait
// before retrying, from the live queue state: roughly one drain cycle of
// the backlog per configured worker, clamped to [1, 60] seconds. While
// draining the server will not admit again until a restart, so the hint
// is a flat 5 seconds — long enough to outlive a rolling restart.
func (s *Scheduler) RetryAfterSeconds() int {
	if s.draining.Load() {
		return 5
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sec := s.q.Depth() / workers
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// checkpointWritten counts a write and fires crash injection.
func (s *Scheduler) checkpointWritten() {
	s.ckWrites.Add(1)
	if s.cfg.CrashAfterCheckpoints > 0 && s.crashLeft.Add(-1) == 0 {
		s.cfg.Crash()
	}
}

// runJob executes one job to completion, drain, or failure. A drained
// or killed job keeps its "running" record for the next start to
// resume; otherwise finishJob publishes the outcome.
func (s *Scheduler) runJob(j *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	switch err := s.execJob(j); {
	case errors.Is(err, errStopped):
	case err != nil:
		s.finishJob(j, StateFailed, err)
	default:
		s.finishJob(j, StateDone, nil)
	}
}

// execJob runs a job's workloads. Each workload is answered spec by
// spec from the result cache first; the remaining misses run in ONE
// pass of the workload's committed stream (sim.RunMany semantics) as
// window units (runPass) and are stored back, so a later identical
// submission is a lookup.
func (s *Scheduler) execJob(j *Job) error {
	jctx := obs.WithJob(context.Background(), j.ID)
	root := s.traceRunStart(j)
	wlSpan := 0
	endWl := func() {
		if wlSpan != 0 {
			s.tracer.EndSpan(j.ID, wlSpan)
			wlSpan = 0
		}
	}
	defer endWl()

	specs := j.Spec.Specs
	builders := make([]sim.Builder, len(specs))
	cells := make([]string, len(specs))
	for i, spec := range specs {
		b, err := HybridBuilder(spec, j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered)
		if err != nil {
			return err // unreachable for specs admitted by Submit
		}
		cell, err := cellSpec(spec, j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered)
		if err != nil {
			return err
		}
		builders[i] = b
		cells[i] = cell
	}
	if err := s.setState(j, StateRunning); err != nil {
		return err
	}
	if j.Resumed {
		s.resumed.Add(1)
		s.emit(j.ID, Event{Type: "resumed", Job: j.ID})
		s.log.InfoContext(jctx, "job resumed")
	} else {
		s.emit(j.ID, Event{Type: "started", Job: j.ID})
		s.log.InfoContext(jctx, "job started")
	}

	// A resumed job continues at the first workload without persisted
	// rows (each finished workload appended len(specs) rows); its
	// checkpoint, if any, belongs to that workload.
	window := j.Spec.windowKey()
	for wi := len(j.Rows) / len(specs); wi < len(j.Workloads); wi++ {
		ref := j.Workloads[wi]
		p, wlID, err := s.traces.loadWorkload(ref, s.cfg.TraceDir)
		if err != nil {
			return err
		}
		// A trace too short for the window would exhaust its replay
		// stream mid-run; the job fails here instead.
		if err := sim.ValidateWindow(p, j.Spec.Warmup, j.Spec.Measure); err != nil {
			return fmt.Errorf("service: workload %s: %w", ref.Name, err)
		}
		wlSpan = s.tracer.StartSpan(j.ID, root, "workload",
			spanAttrs("workload", p.Name, "index", itoa(wi)))

		// Cache pass: serve what exists, collect the miss set.
		rows := make([]ResultRow, len(specs))
		var ps pass
		for i := range specs {
			key := cellKey(cells[i], wlID, window)
			if e, ok := s.cache.get(key); ok {
				row := e.Row
				row.Spec = specs[i]
				row.CellKey = key
				row.Cached = true
				row.SourceJob = e.Job
				rows[i] = row
			} else {
				ps.idx = append(ps.idx, i)
				ps.specs = append(ps.specs, specs[i])
				ps.builds = append(ps.builds, builders[i])
			}
		}

		if len(ps.idx) > 0 {
			rs, err := s.runPass(j, wi, ref, wlID, p, ps, wlSpan)
			if err != nil {
				return err // errStopped leaves the record "running" for resume
			}
			for k, i := range ps.idx {
				key := cellKey(cells[i], wlID, window)
				row := rowFromResult(rs[k])
				row.Spec = specs[i]
				row.CellKey = key
				rows[i] = row
				if err := s.cache.put(CacheEntry{Key: key, Spec: cells[i], Workload: wlID, Window: window, Job: j.ID, Row: row}); err != nil {
					return err
				}
			}
		}

		s.mu.Lock()
		j.Rows = append(j.Rows, rows...)
		s.mu.Unlock()
		if err := s.st.saveJob(j); err != nil {
			return err
		}
		s.st.removeCheckpoint(j.ID)
		for i := range rows {
			row := rows[i]
			s.emit(j.ID, Event{Type: "result", Job: j.ID, Workload: p.Name,
				Done: j.Spec.Measure, Total: j.Spec.Measure, Row: &row})
		}
		endWl()
	}
	return nil
}

// pass is one workload's one-pass simulation set: the job's cache-miss
// specs, their builders, and their indices into the job's Specs, all in
// pass order.
type pass struct {
	idx    []int
	specs  []string
	builds []sim.Builder
}

// passMeta builds the checkpoint meta record of a one-pass run over the
// workload whose content identity (loadWorkload) is wlID: Prophet
// carries the covered specs joined in pass order. Both double as the
// resume guard: a different miss set after a restart (the cache can
// answer a pre-crash miss meanwhile), or a trace re-recorded under the
// same name, fails the match and restarts the workload clean. Unit
// snapshots use the same record.
func passMeta(wlID string, covered []string, critic string, fb uint, unfiltered bool) checkpoint.Meta {
	return checkpoint.Meta{
		Workload:   wlID,
		Prophet:    strings.Join(covered, "; "),
		Critic:     critic,
		FutureBits: fb,
		Unfiltered: unfiltered,
	}
}

// passRun is one workload pass in flight: its windows and their job
// checkpoint state, the one record of every window's snapshot and
// result. The coordinator's units point here.
type passRun struct {
	s    *Scheduler
	j    *Job
	p    *program.Program
	ref  WorkloadRef
	wlID string // the workload's content identity (loadWorkload)
	ps   pass
	ws   []sim.Window
	meta checkpoint.Meta
	span int // the workload span

	mu    sync.Mutex // guards st and dirty
	st    jobState
	dirty bool // the fleet changed st since the last persist

	// wake is a non-blocking token for the job loop: a unit finished,
	// uploaded, or moved to the local pool.
	wake chan struct{}

	// wmu serializes job checkpoint writes (persist); buf is the
	// checkpoint encoding, reused under it.
	wmu sync.Mutex
	buf []byte
}

// runPass runs one workload's cache-miss specs as window units — the one
// window {0, warmup, measure} unless the job is sharded — each walking
// its window's committed stream once for every spec (runUnit). The
// windows are coordinator units (lease): registered workers lease them,
// and the coordinator's own pool runs the rest. The job checkpoint
// records every window's state, so a restarted server reruns only the
// unfinished windows, each from its latest snapshot. The per-spec merge
// in window order is bit-identical to sim.Matrix's cell.
func (s *Scheduler) runPass(j *Job, wi int, ref WorkloadRef, wlID string, p *program.Program, ps pass, span int) ([]sim.Result, error) {
	ws, err := sim.ShardWindows(j.Spec.simOptions(), j.Spec.shardOptions())
	if err != nil {
		return nil, err
	}
	r := &passRun{s: s, j: j, p: p, ref: ref, wlID: wlID, ps: ps, ws: ws, span: span,
		meta: passMeta(wlID, ps.specs, j.Spec.Critic, j.Spec.FutureBits, j.Spec.Unfiltered),
		st:   jobState{workload: wi, specIdx: ps.idx, windows: make([]windowState, len(ws))},
		wake: make(chan struct{}, 1)}
	if j.Resumed {
		// A checkpoint of another pass or other workload bytes, or one
		// that fails to restore, leaves r.st fresh: the workload restarts
		// clean.
		cmeta, dec, ok, err := s.st.readCheckpoint(j.ID)
		if err == nil && ok && cmeta.Workload == r.meta.Workload && cmeta.Prophet == r.meta.Prophet {
			r.st.Restore(dec)
		}
	}

	if err := r.lease(); err != nil {
		if s.ctx.Err() != nil {
			return nil, errStopped
		}
		return nil, err
	}
	// lease returns nil only once every window is done.
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sim.Result, len(ps.idx))
	for k := range out {
		out[k] = r.named(r.st.windows, k)
		for _, w := range r.st.windows {
			out[k].Merge(w.results[k])
		}
	}
	return out, nil
}

// named returns spec k's zero result with its identity fields, taken
// from a result in windows simulated here when there is one
// (ManyStepper results carry them; counters from a worker or a
// checkpoint do not), else from a fresh hybrid.
func (r *passRun) named(windows []windowState, k int) sim.Result {
	cfg := ""
	for _, w := range windows {
		for _, rs := range [][]sim.Result{w.results, w.partials} {
			if rs != nil && rs[k].Config != "" {
				cfg = rs[k].Config
			}
		}
	}
	if cfg == "" {
		cfg = r.ps.builds[k]().Name()
	}
	return sim.Result{Benchmark: r.p.Name, Suite: r.p.Suite, Config: cfg}
}

// runLocal runs window i on this goroutine from snap (nil: from the
// start), under a "unit" span holding its warmup, measure and checkpoint
// spans, recording every snapshot and the result in the job checkpoint.
func (r *passRun) runLocal(i int, snap []byte) error {
	s, id := r.s, r.j.ID
	span := s.tracer.StartSpan(id, r.span, "unit", spanAttrs("unit", unitID(id, r.st.workload, i),
		"window", itoa(i), "measure", itoa(r.ws[i].Measure), "specs", itoa(len(r.ps.idx)), "mode", "local"))
	defer s.tracer.EndSpan(id, span)
	phase := s.tracer.StartSpan(id, span, "warmup", nil)
	defer func() { s.tracer.EndSpan(id, phase) }()
	hooks := unitHooks{
		every: s.cfg.CheckpointEvery,
		stop:  s.ctx.Err,
		stage: func(stage string, start time.Time) {
			s.observeStage(stage, start)
			if stage == stageWarmup {
				s.tracer.EndSpan(id, phase)
				phase = s.tracer.StartSpan(id, span, "measure", nil)
			}
		},
		onSnapshot: func(snap []byte, partials []sim.Result) error {
			return r.record(i, span, windowState{snap: snap, partials: partials})
		},
	}
	rs, err := runUnit(r.p, r.ps.builds, r.ws[i], i, r.meta, snap, hooks)
	if err != nil {
		return err
	}
	return r.record(i, span, windowState{results: rs})
}

// record sets window i's state and persists the job checkpoint.
func (r *passRun) record(i, span int, w windowState) error {
	r.mu.Lock()
	r.st.windows[i] = w
	r.mu.Unlock()
	return r.persist(span)
}

// persist writes the job checkpoint under a "checkpoint" span and emits
// progress: the measured branches so far, summed over the windows (and,
// for a one-spec pass, the partial row). A finished pass writes nothing
// — its rows are persisted next. Writes run one at a time, each of the
// state as it is when the write starts, so the file always ends at the
// latest state; r.mu is held only to copy that state, never across the
// encode and the disk write.
func (r *passRun) persist(span int) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.mu.Lock()
	st := r.st
	st.windows = slices.Clone(r.st.windows)
	r.mu.Unlock()

	s, j := r.s, r.j
	var partial sim.Result
	all := true
	for _, w := range st.windows {
		rs := w.results
		if rs == nil {
			all, rs = false, w.partials
		}
		if rs != nil {
			partial.Merge(rs[0])
		}
	}
	if all {
		return nil
	}
	// Branches counts measured branches, so spec 0's sum is the progress.
	done := int(partial.Branches)
	meta := r.meta
	meta.Position = uint64(j.Spec.Warmup + done)
	if err := s.traceCheckpoint(j.ID, span, func() error {
		r.buf = checkpoint.Append(r.buf[:0], meta, &st)
		return s.st.writeCheckpoint(j.ID, r.buf)
	}); err != nil {
		return err
	}
	s.checkpointWritten()
	ev := Event{Type: "progress", Job: j.ID, Workload: r.p.Name, Done: done, Total: j.Spec.Measure}
	if len(r.ps.idx) == 1 {
		named := r.named(st.windows, 0)
		named.Merge(partial)
		row := rowFromResult(named)
		ev.Row = &row
	}
	s.emit(j.ID, ev)
	return nil
}

// window returns window i's state.
func (r *passRun) window(i int) windowState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.windows[i]
}

// fromFleet sets window i's state from a worker's upload or result and
// wakes the job loop to persist it. The coordinator calls it under its
// own lock (lock order: coordinator.mu, then r.mu).
func (r *passRun) fromFleet(i int, w windowState) {
	r.mu.Lock()
	r.st.windows[i] = w
	r.dirty = true
	r.mu.Unlock()
	r.signal()
}

func (r *passRun) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// lease runs the unfinished windows as coordinator units, each covering
// every spec of the pass: registered workers pull units under
// time-bounded leases, expired leases are re-issued (from the window's
// latest snapshot) with backoff, and units that exhaust their attempt
// budget — or sit pending with no live workers — run through runLocal on
// the coordinator's own pool. It returns nil once every window is done.
func (r *passRun) lease() error {
	s := r.s
	s.co.addUnits(r)
	defer s.co.dropUnits(r)

	ticker := time.NewTicker(timings(s.cfg.LeaseTTL).poll)
	defer ticker.Stop()
	for {
		s.co.reap()
		if locals := s.co.takeLocal(r); len(locals) > 0 {
			var ran atomic.Int64
			err := pool.RunCtx(s.ctx, len(locals), func(k int) error {
				u := locals[k]
				err := r.runLocal(u.idx, r.window(u.idx).snap)
				if err == nil {
					s.co.completeLocal(u)
					ran.Add(1)
				}
				return err
			})
			if err != nil {
				return err
			}
			// A Crash hook can end a pool worker between its checkpoint
			// write and the window's end; stop as the process would have
			// rather than run the window again.
			if int(ran.Load()) < len(locals) {
				return errStopped
			}
		}
		if finished, err := r.absorb(); err != nil || finished {
			return err
		}
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		case <-r.wake:
		case <-ticker.C:
		}
	}
}

// absorb persists the job checkpoint when the fleet changed a window
// since the last call. finished reports that every window is done.
func (r *passRun) absorb() (finished bool, err error) {
	r.mu.Lock()
	dirty := r.dirty
	r.dirty = false
	finished = true
	for _, w := range r.st.windows {
		finished = finished && w.results != nil
	}
	r.mu.Unlock()
	if dirty {
		err = r.persist(r.span)
	}
	return finished, err
}

// ClusterMetricsSnapshot exposes the coordinator counters for /metricsz.
func (s *Scheduler) ClusterMetricsSnapshot() ClusterMetrics {
	return s.co.Metrics()
}
