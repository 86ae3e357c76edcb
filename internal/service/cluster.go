package service

// Coordinator: every job's windows run as its work units. Workers
// register (POST /v1/workers), maintain heartbeats against a deadline,
// and pull units — one sim.ShardWindows window of one job workload —
// under time-bounded leases (POST /v1/units/lease). Results come back
// with the unit's lease token, so a stale worker (expired lease, missed
// heartbeats, partition) is fenced out and can never corrupt the merge.
// An expired lease, or one whose worker reports it cannot run the unit
// (a short or mismatched trace, a bad spec), is re-issued with capped
// exponential backoff + jitter and a per-unit attempt budget; a unit
// that exhausts the budget, or is pending while no worker is live, runs
// on the coordinator's own pool,
// so a job always completes, with or without a fleet. Every protocol
// timing derives from the one lease TTL (timings). A unit covers every
// cache-miss spec of its workload, so a worker walks the window's
// committed stream once for all of them (sim.ManyStepper). Units are
// merged in window order, which keeps cluster results byte-identical to
// the sequential run — the chaos wall the cluster tests pin.
//
// The design follows the hub-and-node isolation rule of the FOXSI
// SpaceWire acquisition network: the coordinator is the one hub every
// job passes through, and every fault is contained at the link
// (lease/token) layer, so one dead node degrades throughput, never
// correctness. A unit holds only its lease bookkeeping; its window's
// snapshot and result live in the pass (passRun), the one record the
// job checkpoint persists. Lock order: coordinator.mu, then passRun.mu.

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
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
	uLeased         // leased to a worker, deadline pending
	uLocal          // handed to the coordinator's own pool
	uDone           // result recorded in the pass
)

// unit is one leasable work unit: window idx of a workload pass, over
// the pass's cache-miss specs. Guarded by coordinator.mu; the window's
// snapshot and result are the pass's.
type unit struct {
	id  string // "<job>.<workload>.<window>", path-safe
	r   *passRun
	idx int // window index within the workload

	state     int
	attempts  int             // leases issued so far
	notBefore time.Time       // backoff gate for the next lease
	failedBy  map[string]bool // workers that reported the unit failed; never leased it again

	token    string // current lease token; fences stale completions
	worker   string
	deadline time.Time
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
	// trace, the lease_roundtrip stage histogram, structured fleet logs.
	tracer   *obs.Tracer
	stageDur *obs.HistogramVec
	log      *slog.Logger

	mu         sync.Mutex
	workers    map[string]*workerRec
	units      map[string]*unit
	nextWorker int
	nextToken  int
	rng        *rand.Rand

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
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	return &coordinator{
		cfg:     cfg,
		log:     log,
		now:     time.Now,
		workers: make(map[string]*workerRec),
		units:   make(map[string]*unit),
		rng:     rand.New(rand.NewSource(1)), // jitter only; never affects results
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

// spanStart/spanEnd guard the tracer wiring (absent only in direct
// coordinator construction, which production code never does).
func (c *coordinator) spanStart(job string, parent int, name string, attrs map[string]string) int {
	if c.tracer == nil {
		return 0
	}
	return c.tracer.StartSpan(job, parent, name, attrs)
}

func (c *coordinator) spanEnd(job string, id int) {
	if c.tracer != nil && id != 0 {
		c.tracer.EndSpan(job, id)
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

// workerStatus is one worker's last-reported snapshot, for the fleet
// gauge bridges.
type workerStatus struct {
	id     string
	status WorkerStatus
}

// workerStatuses snapshots the fleet's last heartbeat payloads.
func (c *coordinator) workerStatuses() []workerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]workerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		if w.hasStatus {
			out = append(out, workerStatus{id: w.id, status: w.status})
		}
	}
	return out
}

// liveWorkers counts the registered workers as of the last reap, which
// removes those whose heartbeats stopped.
func (c *coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// pendingUnits counts units waiting for a lease.
func (c *coordinator) pendingUnits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, u := range c.units {
		if u.state == uPending {
			n++
		}
	}
	return n
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
// leases whose deadline (or worker) is gone. Expired units return to
// pending behind their backoff gate, or degrade to the local pool once
// the attempt budget is spent. A pending unit no live worker may lease
// (there is none, or each has failed it) moves to the local pool at
// once. Called from every cluster handler and from the job wait loop —
// there is no timer goroutine to leak.
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
		switch u.state {
		case uLeased:
			if now.After(u.deadline) || dead[u.worker] {
				c.expired.Add(1)
				c.log.WarnContext(obs.WithUnit(obs.WithWorker(context.Background(), u.worker), u.id),
					"lease expired", "attempts", u.attempts)
				c.release(u, now, "expired", "true")
			}
		case uPending:
			if c.failedByAll(u) {
				c.toLocal(u)
			}
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

// toLocal hands u to the coordinator's own pool. Callers hold c.mu.
func (c *coordinator) toLocal(u *unit) {
	u.state = uLocal
	c.local.Add(1)
	u.r.signal()
}

// release ends u's lease as a failed attempt: it closes the lease's span
// with the attribute key=val, and the unit returns to pending behind its
// backoff gate, or to the local pool once the attempt budget is spent.
// Callers hold c.mu.
func (c *coordinator) release(u *unit, now time.Time, key, val string) {
	if u.span != 0 && c.tracer != nil {
		c.tracer.Annotate(u.r.j.ID, u.span, map[string]string{key: val})
	}
	c.spanEnd(u.r.j.ID, u.span)
	u.span = 0
	u.state = uPending
	u.notBefore = now.Add(c.backoff(u.attempts))
	u.token = "" // fence: the old holder's token is dead
	u.worker = ""
	if u.attempts >= unitAttempts || c.failedByAll(u) {
		c.toLocal(u)
	}
}

// lease hands the requesting worker one eligible pending unit, or none:
// one past its backoff gate that this worker has not failed. Eligible
// units are taken in id order — deterministic, and irrelevant to
// results (the merge is ordered by window index, not completion).
func (c *coordinator) lease(workerID string) (*UnitLease, error) {
	c.reap()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[workerID]; !ok {
		return nil, fmt.Errorf("service: unknown worker %q (re-register)", workerID)
	}
	var pick *unit
	for _, u := range c.units {
		if u.state != uPending || now.Before(u.notBefore) || u.failedBy[workerID] {
			continue
		}
		if pick == nil || u.id < pick.id {
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
	pick.worker = workerID
	pick.deadline = now.Add(c.cfg.LeaseTTL)
	pick.leasedAt = now
	pick.span = c.spanStart(r.j.ID, r.span, "unit",
		spanAttrs("unit", pick.id, "window", itoa(pick.idx), "measure", itoa(w.Measure),
			"worker", workerID, "attempt", itoa(pick.attempts)))
	c.leased.Add(1)
	if pick.attempts > 1 {
		c.retried.Add(1)
	}
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
	}
	return l, nil
}

// storeCheckpoint records a mid-unit snapshot uploaded by the current
// leaseholder in its window of the pass (and extends its lease: an
// uploading worker is alive). A stale token is fenced with an error.
func (c *coordinator) storeCheckpoint(unitID, token string, data []byte) error {
	c.reap()
	c.mu.Lock()
	defer c.mu.Unlock()
	u, ok := c.units[unitID]
	if !ok {
		return fmt.Errorf("service: no unit %q", unitID)
	}
	if u.state != uLeased || u.token != token {
		c.fenced.Add(1)
		return errStaleLease
	}
	u.deadline = c.now().Add(c.cfg.LeaseTTL)
	u.r.fromFleet(u.idx, windowState{snap: data})
	c.ckStored.Add(1)
	return nil
}

// errStaleLease marks completions and uploads whose lease token is no
// longer current; the HTTP layer maps it to 409.
var errStaleLease = fmt.Errorf("service: stale lease token (unit was re-issued)")

// errBadResult marks a unit result whose shape does not match the lease
// (one counter set per leased spec); the HTTP layer maps it to 400.
var errBadResult = fmt.Errorf("service: malformed unit result")

// complete records a unit's per-spec results, delivered under token,
// in its window of the pass. Duplicate deliveries of an
// already-completed unit are acknowledged idempotently; stale tokens
// are fenced.
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
	u.r.fromFleet(u.idx, windowState{results: rs})
	c.completed.Add(1)
	if c.stageDur != nil && !u.leasedAt.IsZero() {
		c.stageDur.With(stageLease).ObserveSince(u.leasedAt)
	}
	c.spanEnd(u.r.j.ID, u.span)
	u.span = 0
	c.log.InfoContext(obs.WithUnit(obs.WithWorker(context.Background(), u.worker), u.id),
		"unit completed", "specs", len(rs))
	return nil
}

// fail records that the holder of token cannot run the unit (reason
// says why) and releases the lease at once instead of letting it
// expire. That worker is never leased the unit again, and once every
// live worker has failed it the unit goes to the local pool. A stale
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
	if u.failedBy == nil {
		u.failedBy = make(map[string]bool)
	}
	u.failedBy[u.worker] = true
	c.release(u, c.now(), "failed", reason)
	return nil
}

// addUnits registers the unfinished windows of pass r as leasable
// units.
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
		c.units[id] = &unit{id: id, r: r, idx: i, state: uPending, notBefore: now}
	}
}

// dropUnits removes every unit of pass r (job finished, failed, or the
// scheduler is stopping). Leased copies still held by workers fence out
// naturally: their unit ids no longer exist.
func (c *coordinator) dropUnits(r *passRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, u := range c.units {
		if u.r == r {
			delete(c.units, id)
		}
	}
}

// takeLocal returns the units of pass r handed to the coordinator's own
// pool, by window index.
func (c *coordinator) takeLocal(r *passRun) []*unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*unit
	for _, u := range c.units {
		if u.r == r && u.state == uLocal {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].idx < out[k].idx })
	return out
}

// completeLocal marks a unit run on the coordinator's pool done; runLocal
// already recorded its result in the pass.
func (c *coordinator) completeLocal(u *unit) {
	c.mu.Lock()
	u.state = uDone
	c.mu.Unlock()
	c.completed.Add(1)
}

// The fleet's fixed protocol constants; every interval derives from the
// lease TTL (timings).
const (
	heartbeatMisses = 3                     // missed beats before a worker is dead
	unitAttempts    = 4                     // leases per unit before it runs locally
	minLeaseTTL     = 10 * time.Millisecond // keeps every derived interval positive
)

// fleetTimings are the protocol intervals derived from one lease TTL.
type fleetTimings struct {
	heartbeat  time.Duration // worker heartbeat interval
	dead       time.Duration // silence after which a worker is dead
	backoff    time.Duration // base re-issue backoff of an expired unit
	backoffMax time.Duration // re-issue backoff cap
	poll       time.Duration // idle wait between empty lease calls
}

// timings derives the fleet's protocol intervals from the lease TTL: a
// heartbeat every TTL/5, dead after heartbeatMisses missed beats (still
// under the TTL), re-issue backoff from TTL/25 doubling up to the TTL,
// and a poll of TTL/8 held within [10ms, 1s]. At the default 5s TTL:
// 1s, 3s, 200ms, 5s and 625ms.
func timings(ttl time.Duration) fleetTimings {
	beat := ttl / 5
	return fleetTimings{
		heartbeat:  beat,
		dead:       heartbeatMisses * beat,
		backoff:    ttl / 25,
		backoffMax: ttl,
		poll:       min(max(ttl/8, 10*time.Millisecond), time.Second),
	}
}

// Wire types of the worker protocol.

// WorkerRegistration is the body of POST /v1/workers.
type WorkerRegistration struct {
	Name string `json:"name,omitempty"`
}

// WorkerInfo is the coordinator's reply to a registration: the worker's
// id and the lease TTL its heartbeat and poll intervals derive from.
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

func (ur UnitResult) toResults() []sim.Result {
	rs := make([]sim.Result, len(ur.Results))
	for i, c := range ur.Results {
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

func unitResultFrom(worker, token string, rs []sim.Result) UnitResult {
	ur := UnitResult{Worker: worker, Token: token, Results: make([]UnitCounters, len(rs))}
	for i, r := range rs {
		ur.Results[i] = UnitCounters{
			Branches:    r.Branches,
			Uops:        r.Uops,
			ProphetMisp: r.ProphetMisp,
			FinalMisp:   r.FinalMisp,
			Critiques:   r.Critiques,
		}
	}
	return ur
}
