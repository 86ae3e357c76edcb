package service

// Coordinator: every job's windows run as its work units, one queue for
// every consumer. Workers register (POST /v1/workers), maintain
// heartbeats against a deadline, and pull units — one sim.ShardWindows
// window of one job workload — under time-bounded leases (POST
// /v1/units/lease, held open while no unit is eligible). Results come
// back with the unit's lease token, so a stale worker (expired lease,
// missed heartbeats, partition) is fenced out and can never corrupt the
// merge. An expired lease, or one whose worker reports it cannot run
// the unit (a short or mismatched trace, a bad spec), is re-issued with
// capped exponential backoff + jitter and a per-unit attempt budget.
// The server's own pool leases as one more consumer (localConsumer) the
// units no live worker may take, and reports through the same calls, so
// a job always completes, with or without a fleet. Every protocol
// timing derives from the one lease TTL (timings). A unit covers every
// cache-miss spec of its workload, so a consumer walks the window's
// committed stream once for all of them (sim.ManyStepper). Units are
// merged in window order, which keeps cluster results byte-identical to
// the sequential run — the chaos wall the cluster tests pin.
//
// The design follows the hub-and-node isolation rule of the FOXSI
// SpaceWire acquisition network: the coordinator is the one hub every
// job passes through, its own node uses the same link as every other,
// and every fault is contained at the link (lease/token) layer, so one
// dead node degrades throughput, never correctness. A unit holds only
// its lease bookkeeping; its window's snapshot and result live in the
// pass (passRun), the one record the job checkpoint persists. Lock
// order: coordinator.mu, then passRun.mu.

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"prophetcritic/internal/core"
	"prophetcritic/internal/obs"
	"prophetcritic/internal/sim"
)

// Unit states.
const (
	uPending = iota // waiting for a lease (or for its backoff gate)
	uLeased         // leased to a consumer
	uDone           // result recorded in the pass
)

// localConsumer is the consumer id under which the server's own pool
// leases units; no registered worker has it.
const localConsumer = "local"

// unit is one leasable work unit: window idx of a workload pass, over
// the pass's cache-miss specs. Guarded by coordinator.mu; the window's
// snapshot and result are the pass's.
type unit struct {
	id  string // "<job>.<workload>.<window>", path-safe
	r   *passRun
	idx int // window index within the workload

	state     int
	attempts  int             // leases issued so far
	notBefore time.Time       // backoff gate for the next worker lease
	failedBy  map[string]bool // workers that reported the unit failed; never leased it again

	token    string    // current lease token; fences stale completions
	worker   string    // the consumer holding the lease
	deadline time.Time // unused by a local lease, which never expires
	leasedAt time.Time // last lease issue, for the lease_roundtrip stage

	span int // open "unit" span of the current lease, 0 if none
}

func unitID(jobID string, wi, idx int) string {
	return fmt.Sprintf("%s.%d.%d", jobID, wi, idx)
}

// workerRec is one registered worker.
type workerRec struct {
	id       string
	name     string
	lastBeat time.Time

	// status is the gauge snapshot the worker's last heartbeat carried;
	// the registry re-exports it under a worker label.
	status    WorkerStatus
	hasStatus bool
}

// ClusterMetrics is the coordinator's counter snapshot, rendered by
// /metricsz.
type ClusterMetrics struct {
	WorkersRegistered uint64
	WorkersLive       int
	Heartbeats        uint64
	UnitsLeased       uint64
	LeasesExpired     uint64
	UnitsFailed       uint64
	UnitsRetried      uint64
	UnitsCompleted    uint64
	UnitsLocal        uint64
	ResultsFenced     uint64
	ResultsDuplicate  uint64
	CheckpointsStored uint64
	UnitsPending      int
}

// coordinator owns the worker registry and the unit/lease table; the
// scheduler runs every job's windows through it.
type coordinator struct {
	cfg Config
	now func() time.Time

	// Telemetry, wired by Scheduler.initObs: unit spans under the job
	// trace (a private tracer until then), the lease_roundtrip stage
	// histogram, structured fleet logs.
	tracer   *obs.Tracer
	stageDur *obs.HistogramVec
	log      *slog.Logger

	// done ends idle lease calls when the scheduler stops.
	done <-chan struct{}

	mu         sync.Mutex
	workers    map[string]*workerRec
	units      map[string]*unit
	nextWorker int
	nextToken  int
	rng        *rand.Rand
	idle       chan struct{} // closed (and replaced) to wake idle lease calls

	registered atomic.Uint64
	heartbeats atomic.Uint64
	leased     atomic.Uint64
	expired    atomic.Uint64
	failed     atomic.Uint64
	retried    atomic.Uint64
	completed  atomic.Uint64
	local      atomic.Uint64
	fenced     atomic.Uint64
	duplicate  atomic.Uint64
	ckStored   atomic.Uint64
}

func newCoordinator(cfg Config) *coordinator {
	cfg = cfg.withDefaults()
	return &coordinator{
		cfg:     cfg,
		log:     cfg.Logger,
		tracer:  obs.NewTracer(0),
		now:     time.Now,
		workers: make(map[string]*workerRec),
		units:   make(map[string]*unit),
		rng:     rand.New(rand.NewSource(1)), // jitter only; never affects results
		idle:    make(chan struct{}),
	}
}

// Metrics returns the coordinator counter snapshot.
func (c *coordinator) Metrics() ClusterMetrics {
	c.mu.Lock()
	live := len(c.workers)
	pending := 0
	for _, u := range c.units {
		if u.state == uPending {
			pending++
		}
	}
	c.mu.Unlock()
	return ClusterMetrics{
		WorkersRegistered: c.registered.Load(),
		WorkersLive:       live,
		Heartbeats:        c.heartbeats.Load(),
		UnitsLeased:       c.leased.Load(),
		LeasesExpired:     c.expired.Load(),
		UnitsFailed:       c.failed.Load(),
		UnitsRetried:      c.retried.Load(),
		UnitsCompleted:    c.completed.Load(),
		UnitsLocal:        c.local.Load(),
		ResultsFenced:     c.fenced.Load(),
		ResultsDuplicate:  c.duplicate.Load(),
		CheckpointsStored: c.ckStored.Load(),
		UnitsPending:      pending,
	}
}

// register admits a worker and returns its id plus the lease TTL every
// protocol timing derives from.
func (c *coordinator) register(name string) WorkerInfo {
	c.mu.Lock()
	id := fmt.Sprintf("w%04d", c.nextWorker)
	c.nextWorker++
	c.workers[id] = &workerRec{id: id, name: name, lastBeat: c.now()}
	c.mu.Unlock()
	c.registered.Add(1)
	c.log.InfoContext(obs.WithWorker(context.Background(), id), "worker registered", "name", name)
	return WorkerInfo{ID: id, LeaseTTLMs: c.cfg.LeaseTTL.Milliseconds()}
}

// heartbeat refreshes a worker's deadline and records the gauge
// snapshot the beat carried, if any; ok is false for unknown (or
// already-expired) workers, which must re-register.
func (c *coordinator) heartbeat(id string, status *WorkerStatus) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastBeat = c.now()
	if status != nil {
		w.status = *status
		w.hasStatus = true
	}
	c.heartbeats.Add(1)
	return true
}

// workerStatuses snapshots the fleet's last heartbeat payloads by
// worker id, for the fleet gauge bridges.
func (c *coordinator) workerStatuses() map[string]WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]WorkerStatus, len(c.workers))
	for id, w := range c.workers {
		if w.hasStatus {
			out[id] = w.status
		}
	}
	return out
}

// backoff returns the capped exponential backoff (plus jitter) before
// lease attempt n+1 may be issued.
func (c *coordinator) backoff(attempts int) time.Duration {
	t := timings(c.cfg.LeaseTTL)
	d := t.backoff
	for i := 1; i < attempts && d < t.backoffMax; i++ {
		d *= 2
	}
	d = min(d, t.backoffMax)
	// Full jitter in [d/2, d): desynchronizes re-issues without ever
	// shortening the base delay below half.
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// reap expires what has timed out: workers whose heartbeats stopped and
// worker leases whose deadline (or worker) is gone; see release. A dead
// worker may leave a pending unit to the local consumer, so its job loop
// wakes. Called from every cluster handler and from the job loop.
func (c *coordinator) reap() {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()

	dead := make(map[string]bool)
	silence := timings(c.cfg.LeaseTTL).dead
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > silence {
			dead[id] = true
			delete(c.workers, id)
			c.log.WarnContext(obs.WithWorker(context.Background(), id), "worker declared dead",
				"name", w.name, "last_beat", w.lastBeat)
		}
	}
	for _, u := range c.units {
		switch {
		case u.state == uLeased && u.worker != localConsumer && (now.After(u.deadline) || dead[u.worker]):
			c.expired.Add(1)
			c.log.WarnContext(obs.WithUnit(obs.WithWorker(context.Background(), u.worker), u.id),
				"lease expired", "attempts", u.attempts)
			c.release(u, now, "expired", "true")
		case u.state == uPending && len(dead) > 0:
			u.r.signal()
		}
	}
}

// failedByAll reports whether every live worker has failed u (true
// with no live worker). Callers hold c.mu.
func (c *coordinator) failedByAll(u *unit) bool {
	for id := range c.workers {
		if !u.failedBy[id] {
			return false
		}
	}
	return true
}

// release ends u's lease as a failed attempt: it closes the lease's span
// with the attribute key=val, and the unit returns to pending behind its
// backoff gate, which wakes idle lease calls when it passes. u's job
// loop wakes at once: its local consumer may take u. Callers hold c.mu.
func (c *coordinator) release(u *unit, now time.Time, key, val string) {
	c.tracer.Annotate(u.r.j.ID, u.span, map[string]string{key: val})
	c.tracer.EndSpan(u.r.j.ID, u.span)
	u.span = 0
	u.state = uPending
	gate := c.backoff(u.attempts)
	u.notBefore = now.Add(gate)
	u.token = "" // fence: the old holder's token is dead
	u.worker = ""
	time.AfterFunc(gate, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.wakeIdle()
	})
	u.r.signal()
}

// wakeIdle wakes every idle lease call. Callers hold c.mu.
func (c *coordinator) wakeIdle() {
	close(c.idle)
	c.idle = make(chan struct{})
}

// lease hands consumer one eligible pending unit, or none. A worker may
// take a unit past its backoff gate that it has not failed while
// attempts remain. localConsumer, leasing for its pass pr (nil for a
// worker), takes one of pr's units at once when no live worker may: each
// has failed it (true with none live) or its attempts are spent. reap
// never expires that lease, so no worker gets the unit again. Units go
// in id order: deterministic, and irrelevant to results (the merge is
// ordered by window index, not completion).
func (c *coordinator) lease(consumer string, pr *passRun) (*UnitLease, error) {
	c.reap()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	local := consumer == localConsumer && pr != nil
	if _, ok := c.workers[consumer]; !ok && !local {
		return nil, fmt.Errorf("service: unknown worker %q (re-register)", consumer)
	}
	var pick *unit
	for _, u := range c.units {
		spent := u.attempts >= unitAttempts
		ok := !spent && !now.Before(u.notBefore) && !u.failedBy[consumer]
		if local {
			ok = u.r == pr && (spent || c.failedByAll(u))
		}
		if u.state == uPending && ok && (pick == nil || u.id < pick.id) {
			pick = u
		}
	}
	if pick == nil {
		return nil, nil
	}
	r, w := pick.r, pick.r.ws[pick.idx]
	c.nextToken++
	pick.state = uLeased
	pick.attempts++
	pick.token = fmt.Sprintf("t%06d", c.nextToken)
	pick.worker = consumer
	pick.deadline = now.Add(c.cfg.LeaseTTL)
	pick.leasedAt = now
	attrs := spanAttrs("unit", pick.id, "window", itoa(pick.idx), "measure", itoa(w.Measure),
		"worker", consumer, "attempt", itoa(pick.attempts))
	if local {
		attrs["mode"] = "local"
		c.local.Add(1)
	} else {
		c.leased.Add(1)
		if pick.attempts > 1 {
			c.retried.Add(1)
		}
	}
	pick.span = c.tracer.StartSpan(r.j.ID, r.span, "unit", attrs)
	l := &UnitLease{
		Unit:       pick.id,
		Token:      pick.token,
		TTLMs:      c.cfg.LeaseTTL.Milliseconds(),
		Workload:   r.ref,
		WorkloadID: r.wlID,
		Specs:      r.ps.specs,
		Critic:     r.j.Spec.Critic,
		FutureBits: r.j.Spec.FutureBits,
		Unfiltered: r.j.Spec.Unfiltered,
		Skip:       w.Skip,
		Train:      w.Train,
		Measure:    w.Measure,
		CkptEvery:  c.cfg.CheckpointEvery,
		Checkpoint: r.window(pick.idx).snap,
		idx:        pick.idx,
		span:       pick.span,
	}
	return l, nil
}

// leaseWait is a worker's lease call. While no unit is eligible it waits
// until one may be — addUnits made units pending or a backoff gate
// passed — and asks again, for at most timings(TTL).wait, or until ctx
// ends or the scheduler stops. It returns nil, nil when it gives up.
func (c *coordinator) leaseWait(ctx context.Context, worker string) (*UnitLease, error) {
	ctx, cancel := context.WithTimeout(ctx, timings(c.cfg.LeaseTTL).wait)
	defer cancel()
	for {
		// Take the wake channel first, so a unit made pending after the
		// lease call below still wakes this one.
		c.mu.Lock()
		idle := c.idle
		c.mu.Unlock()
		if l, err := c.lease(worker, nil); l != nil || err != nil {
			return l, err
		}
		select {
		case <-idle:
		case <-ctx.Done():
			return nil, nil
		case <-c.done:
			return nil, nil
		}
	}
}

// storeCheckpoint records a mid-unit snapshot, and the partial counters
// it carries (one set per leased spec), uploaded by the current
// leaseholder in its window of the pass, and extends its lease: an
// uploading worker is alive. It returns once the job loop has written
// the snapshot to the job checkpoint (or the pass has ended), or when
// ctx ends. A stale token is fenced with an error.
func (c *coordinator) storeCheckpoint(ctx context.Context, unitID, token string, data []byte, partials []sim.Result) error {
	c.reap()
	c.mu.Lock()
	u, ok := c.units[unitID]
	switch {
	case !ok:
		c.mu.Unlock()
		return fmt.Errorf("service: no unit %q", unitID)
	case u.state != uLeased || u.token != token:
		c.mu.Unlock()
		c.fenced.Add(1)
		return errStaleLease
	case len(partials) != len(u.r.ps.specs):
		c.mu.Unlock()
		return fmt.Errorf("%w: %d partial counter sets for %d specs", errBadResult, len(partials), len(u.r.ps.specs))
	}
	u.deadline = c.now().Add(c.cfg.LeaseTTL)
	saved := u.r.report(u.idx, windowState{snap: data, partials: partials}, u.span, false)
	c.ckStored.Add(1)
	c.mu.Unlock()
	select {
	case <-saved:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errStaleLease marks completions and uploads whose lease token is no
// longer current; the HTTP layer maps it to 409.
var errStaleLease = fmt.Errorf("service: stale lease token (unit was re-issued)")

// errBadResult marks a unit result or upload whose shape does not match
// the lease (one counter set per leased spec); the HTTP layer maps it
// to 400.
var errBadResult = fmt.Errorf("service: malformed unit result")

// complete records a unit's per-spec results, delivered under token,
// in its window of the pass for the job loop to persist. Duplicate
// deliveries of an already-completed unit are acknowledged
// idempotently; stale tokens are fenced.
func (c *coordinator) complete(unitID, token string, rs []sim.Result) error {
	c.reap()
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.units[unitID]
	if !ok {
		return fmt.Errorf("service: no unit %q", unitID)
	}
	if n := len(u.r.ps.specs); len(rs) != n {
		return fmt.Errorf("%w: %d counter sets for %d specs", errBadResult, len(rs), n)
	}
	if u.state == uDone {
		c.duplicate.Add(1)
		return nil // idempotent ack: the merge already has this window
	}
	if u.state != uLeased || u.token != token {
		c.fenced.Add(1)
		return errStaleLease
	}
	u.state = uDone
	u.r.report(u.idx, windowState{results: rs}, u.span, true) // the job loop ends the span
	u.span = 0
	c.completed.Add(1)
	if c.stageDur != nil {
		c.stageDur.With(stageLease).ObserveSince(u.leasedAt)
	}
	c.log.InfoContext(obs.WithUnit(obs.WithWorker(context.Background(), u.worker), u.id),
		"unit completed", "specs", len(rs))
	return nil
}

// fail records that the holder of token cannot run the unit (reason
// says why) and releases the lease at once instead of letting it
// expire. That worker is never leased the unit again, and once every
// live worker has failed it the local consumer may take it. A stale
// token is fenced like a stale result, and a failure reported after the
// unit completed is acknowledged without effect.
func (c *coordinator) fail(unitID, token, reason string) error {
	c.reap()
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.units[unitID]
	if !ok {
		return fmt.Errorf("service: no unit %q", unitID)
	}
	if u.state == uDone {
		c.duplicate.Add(1)
		return nil
	}
	if u.state != uLeased || u.token != token {
		c.fenced.Add(1)
		return errStaleLease
	}
	c.failed.Add(1)
	c.log.WarnContext(obs.WithUnit(obs.WithWorker(context.Background(), u.worker), u.id),
		"unit failed on worker", "attempts", u.attempts, "err", reason)
	u.failedBy[u.worker] = true
	c.release(u, c.now(), "failed", reason)
	return nil
}

// addUnits registers the unfinished windows of pass r as leasable
// units and wakes idle lease calls.
func (c *coordinator) addUnits(r *passRun) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range r.st.windows {
		if w.results != nil {
			continue
		}
		id := unitID(r.j.ID, r.st.workload, i)
		c.units[id] = &unit{id: id, r: r, idx: i, state: uPending, notBefore: now, failedBy: map[string]bool{}}
	}
	c.wakeIdle()
}

// dropUnits removes every unit of pass r (job finished, failed, or the
// scheduler is stopping). Leased copies still held by consumers fence
// out naturally: their unit ids no longer exist.
func (c *coordinator) dropUnits(r *passRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, u := range c.units {
		if u.r == r {
			delete(c.units, id)
		}
	}
}

// The fleet's fixed protocol constants; every interval derives from the
// lease TTL (timings).
const (
	heartbeatMisses = 3                     // missed beats before a worker is dead
	unitAttempts    = 4                     // worker leases per unit before the local consumer takes it
	minLeaseTTL     = 10 * time.Millisecond // keeps every derived interval positive
	maxLeaseWait    = 20 * time.Second      // under the API client's default 30s timeout
)

// fleetTimings are the protocol intervals derived from one lease TTL.
type fleetTimings struct {
	heartbeat  time.Duration // worker heartbeat interval
	dead       time.Duration // silence after which a worker is dead
	backoff    time.Duration // base re-issue backoff of an expired unit
	backoffMax time.Duration // re-issue backoff cap
	reap       time.Duration // the job loop's sweep for expired leases and dead workers
	wait       time.Duration // longest an idle lease call waits for a unit
}

// timings derives the fleet's protocol intervals from the lease TTL: a
// heartbeat every TTL/5, dead after heartbeatMisses missed beats (still
// under the TTL), re-issue backoff from TTL/25 doubling up to the TTL, a
// reap sweep every TTL/8 held within [10ms, 1s], and an idle lease call
// held up to the TTL, at most maxLeaseWait. At the default 5s TTL: 1s,
// 3s, 200ms, 5s, 625ms and 5s.
func timings(ttl time.Duration) fleetTimings {
	beat := ttl / 5
	return fleetTimings{
		heartbeat:  beat,
		dead:       heartbeatMisses * beat,
		backoff:    ttl / 25,
		backoffMax: ttl,
		reap:       min(max(ttl/8, 10*time.Millisecond), time.Second),
		wait:       min(ttl, maxLeaseWait),
	}
}

// Wire types of the worker protocol.

// WorkerRegistration is the body of POST /v1/workers.
type WorkerRegistration struct {
	Name string `json:"name,omitempty"`
}

// WorkerInfo is the coordinator's reply to a registration: the worker's
// id and the lease TTL its heartbeat interval derives from.
type WorkerInfo struct {
	ID         string `json:"id"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
}

// LeaseRequest is the body of POST /v1/units/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// WorkerStatus is the optional body of POST /v1/workers/{id}/heartbeat:
// a gauge snapshot of the worker node the coordinator re-exports on
// /metricsz under a worker label. Heartbeats without a body (older
// workers) still renew the liveness deadline.
type WorkerStatus struct {
	UnitsDone      uint64 `json:"units_done"`
	UnitsLost      uint64 `json:"units_lost"`
	SimBranches    uint64 `json:"sim_branches"`
	SimPredictions uint64 `json:"sim_predictions"`
	ActiveRuns     int64  `json:"active_runs"`
}

// UnitLease describes one leased work unit: everything a worker needs to
// execute the window and report back under the fencing token. Specs are
// the prophet specs the unit simulates in one pass, all sharing the
// critic settings. WorkloadID is the workload identity the coordinator
// caches the unit's counters under; a worker whose own copy of the
// workload loads to another identity fails the unit instead of
// simulating other bytes. Checkpoint, when present, is a "PCCK"
// snapshot a previous attempt uploaded; the worker resumes from it
// instead of re-running the window from scratch. Workers must be the
// same build as the coordinator: the lease and result shapes are not
// versioned.
type UnitLease struct {
	Unit  string `json:"unit"`
	Token string `json:"token"`
	TTLMs int64  `json:"ttl_ms"`

	Workload   WorkloadRef `json:"workload"`
	WorkloadID string      `json:"workload_id"`
	Specs      []string    `json:"specs"`
	Critic     string      `json:"critic,omitempty"`
	FutureBits uint        `json:"future_bits,omitempty"`
	Unfiltered bool        `json:"unfiltered,omitempty"`

	Skip    int `json:"skip"`
	Train   int `json:"train"`
	Measure int `json:"measure"`

	CkptEvery  int    `json:"ckpt_every"`
	Checkpoint []byte `json:"checkpoint,omitempty"`

	idx, span int // window index and "unit" span, for the in-process consumer
}

// UnitResult is the body of POST /v1/units/{id}/result: the exact
// counters of the unit's measured window, one set per leased spec in
// lease order, fenced by the lease token. A worker that cannot run the
// unit sends Error, saying why, and no results; the coordinator then
// re-issues the unit without waiting for the lease to expire.
type UnitResult struct {
	Worker  string         `json:"worker"`
	Token   string         `json:"token"`
	Results []UnitCounters `json:"results,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// UnitCounters is one spec's counters over a unit's measured window.
type UnitCounters struct {
	Branches    uint64                    `json:"branches"`
	Uops        uint64                    `json:"uops"`
	ProphetMisp uint64                    `json:"prophet_misp"`
	FinalMisp   uint64                    `json:"final_misp"`
	Critiques   [core.NumCritiques]uint64 `json:"critiques"`
}

// results converts wire counters to per-spec results.
func results(cs []UnitCounters) []sim.Result {
	rs := make([]sim.Result, len(cs))
	for i, c := range cs {
		rs[i] = sim.Result{
			Branches:    c.Branches,
			Uops:        c.Uops,
			ProphetMisp: c.ProphetMisp,
			FinalMisp:   c.FinalMisp,
			Critiques:   c.Critiques,
		}
	}
	return rs
}

// counters converts per-spec results to wire counters.
func counters(rs []sim.Result) []UnitCounters {
	cs := make([]UnitCounters, len(rs))
	for i, r := range rs {
		cs[i] = UnitCounters{
			Branches:    r.Branches,
			Uops:        r.Uops,
			ProphetMisp: r.ProphetMisp,
			FinalMisp:   r.FinalMisp,
			Critiques:   r.Critiques,
		}
	}
	return cs
}
