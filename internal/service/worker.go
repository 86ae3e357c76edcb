package service

// Worker is the node side of the cluster protocol: it registers with the
// coordinator, heartbeats on the interval derived from the coordinator's
// lease TTL, pulls work units under time-bounded leases, executes them
// through the shared unit path (uploading mid-unit "PCCK" snapshots so a
// successor resumes instead of restarting), and reports results fenced
// by the lease token.
// All HTTP traffic goes through the retrying APIClient, so transient
// coordinator hiccups (connection errors, 429/503 backpressure) are
// absorbed with backoff instead of killing the node.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prophetcritic/internal/obs"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// WorkerConfig configures one worker node.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Name labels the worker in coordinator logs (default "worker").
	Name string
	// TraceDir resolves trace workloads on this node; bench workloads are
	// built in. A worker without one rejects trace units.
	TraceDir string
	// Client overrides the API client (tests); default is a
	// NewAPIClient(Coordinator, 30s, 4).
	Client *APIClient
	// Chaos is the fault-injection harness (zero = none).
	Chaos Chaos
	// Logger receives structured worker lifecycle records, stamped with
	// the worker's correlation id; nil discards them.
	Logger *slog.Logger
}

// Worker runs the node loop. Create with NewWorker, drive with Run.
type Worker struct {
	cfg    WorkerConfig
	api    *APIClient
	traces *traceMemo

	id     string
	timing fleetTimings // derived from the coordinator's lease TTL

	leases     int         // units leased so far (chaos accounting)
	beating    atomic.Bool // heartbeats flowing (drop-heartbeats clears it)
	UnitsDone  atomic.Uint64
	UnitsLost  atomic.Uint64 // fenced or abandoned
	Registered atomic.Uint64
}

// NewWorker validates the config and returns an idle worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("service: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	api := cfg.Client
	if api == nil {
		api = NewAPIClient(cfg.Coordinator, 30*time.Second, 4)
	}
	w := &Worker{cfg: cfg, api: api, traces: newTraceMemo(traceMemoCap)}
	w.beating.Store(true)
	return w, nil
}

// log returns the structured logger (never nil).
func (w *Worker) log() *slog.Logger {
	if w.cfg.Logger != nil {
		return w.cfg.Logger
	}
	return obs.NopLogger()
}

// lctx stamps the worker's correlation id on a log context.
func (w *Worker) lctx(ctx context.Context) context.Context {
	return obs.WithWorker(ctx, w.id)
}

// register (re-)registers with the coordinator and derives its
// heartbeat interval from the coordinator's lease TTL, as the
// coordinator does.
func (w *Worker) register(ctx context.Context) error {
	var info WorkerInfo
	if _, err := w.api.PostJSON(ctx, "/v1/workers", WorkerRegistration{Name: w.cfg.Name}, &info); err != nil {
		return fmt.Errorf("service: worker registration: %w", err)
	}
	ttl := time.Duration(info.LeaseTTLMs) * time.Millisecond
	w.id = info.ID
	w.api.SetHeader("X-PC-Worker", w.id) // correlate our traffic in coordinator logs
	w.timing = timings(ttl)
	w.Registered.Add(1)
	w.log().InfoContext(w.lctx(ctx), "registered",
		"name", w.cfg.Name, "lease_ttl", ttl, "heartbeat", w.timing.heartbeat)
	return nil
}

// Run executes the worker loop until ctx is done or chaos kills it. A
// worker never stops on unit-level failures: a unit it cannot run is
// reported failed, and a fenced result or a failed upload abandons the
// unit (the coordinator re-issues it); the loop continues.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The coordinator holds the call until a unit is eligible or its
		// wait bound passes (204), so an idle worker never sleeps.
		lease := new(UnitLease)
		status, err := w.api.PostJSON(ctx, "/v1/units/lease", LeaseRequest{Worker: w.id}, lease)
		switch {
		case status == http.StatusNotFound:
			// Coordinator no longer knows us (restart, or we were declared
			// dead): re-register and carry on.
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log().WarnContext(w.lctx(ctx), "lease failed", "err", err)
			if !sleepCtx(ctx, w.timing.heartbeat) {
				return ctx.Err()
			}
			continue
		case status == http.StatusNoContent:
			continue
		}

		w.leases++
		if w.cfg.Chaos.DropHeartbeats {
			w.beating.Store(false) // partition: compute on, say nothing
		}
		chaosKill := w.cfg.Chaos.KillOnLease > 0 && w.leases >= w.cfg.Chaos.KillOnLease
		if err := w.execute(ctx, lease, chaosKill); err != nil {
			if err == ErrChaosKilled || ctx.Err() != nil {
				return err
			}
			w.UnitsLost.Add(1)
			w.log().WarnContext(obs.WithUnit(w.lctx(ctx), lease.Unit), "unit abandoned", "err", err)
		}
	}
}

// prepare checks that this node can run the leased unit and returns its
// program, hybrid builders and window index: the specs must build, the
// node's copy of the workload must load to the coordinator's identity,
// and the window must fit it.
func (w *Worker) prepare(l *UnitLease) (*program.Program, []sim.Builder, int, error) {
	builds := make([]sim.Builder, len(l.Specs))
	for k, spec := range l.Specs {
		b, err := HybridBuilder(spec, l.Critic, l.FutureBits, l.Unfiltered)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("building hybrid: %w", err)
		}
		builds[k] = b
	}
	p, id, err := w.traces.loadWorkload(l.Workload, w.cfg.TraceDir, l.Skip+l.Train+l.Measure)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("loading workload: %w", err)
	}
	if id != l.WorkloadID {
		return nil, nil, 0, fmt.Errorf("workload %s: this worker's copy is %s, the coordinator's %s", l.Workload.Name, id, l.WorkloadID)
	}
	// The lease is outside input: a window past the trace's end would
	// exhaust its replay.
	if err := sim.ValidateWindow(p, l.Skip+l.Train, l.Measure); err != nil {
		return nil, nil, 0, fmt.Errorf("workload %s: %w", l.Workload.Name, err)
	}
	_, _, idx, err := splitUnitID(l.Unit)
	if err != nil {
		return nil, nil, 0, err
	}
	return p, builds, idx, nil
}

// execute runs one leased unit and reports its result. A unit this node
// cannot run (see prepare) is reported failed under the lease token, so
// the coordinator re-issues it at once. With chaosKill the worker
// uploads exactly one snapshot and then dies mid-unit, leaving the
// coordinator a lease to expire and a checkpoint to resume.
func (w *Worker) execute(ctx context.Context, l *UnitLease, chaosKill bool) error {
	p, builds, idx, err := w.prepare(l)
	if err != nil {
		// The unit is lost either way; a failed report only means the
		// coordinator waits out the lease instead.
		if _, rerr := w.api.PostJSON(ctx, "/v1/units/"+l.Unit+"/result", UnitResult{Worker: w.id, Token: l.Token, Error: err.Error()}, nil); rerr != nil && ctx.Err() == nil {
			w.log().WarnContext(obs.WithUnit(w.lctx(ctx), l.Unit), "reporting unit failure", "err", rerr)
		}
		return err
	}
	meta := passMeta(l.WorkloadID, l.Specs, l.Critic, l.FutureBits, l.Unfiltered)
	window := sim.Window{Skip: l.Skip, Train: l.Train, Measure: l.Measure}

	snapshots := 0
	onSnapshot := func(data []byte, partials []sim.Result) error {
		up := checkpointUpload{Token: l.Token, Data: data, Partials: counters(partials)}
		status, err := w.api.PostJSON(ctx, "/v1/units/"+l.Unit+"/checkpoint?token="+l.Token, up, nil)
		if status == http.StatusConflict {
			return errStaleLease // fenced: stop wasting cycles on this unit
		}
		if err != nil {
			return err
		}
		snapshots++
		if chaosKill && snapshots >= 1 {
			return ErrChaosKilled
		}
		return nil
	}
	rs, err := runUnit(p, builds, window, idx, meta, l.Checkpoint,
		unitHooks{every: l.CkptEvery, onSnapshot: onSnapshot, stop: ctx.Err})
	if err == ErrChaosKilled {
		w.log().WarnContext(obs.WithUnit(w.lctx(ctx), l.Unit), "chaos kill-on-lease fired")
		return ErrChaosKilled
	}
	if err != nil {
		return err
	}

	if w.cfg.Chaos.DelayResults > 0 {
		if !sleepCtx(ctx, w.cfg.Chaos.DelayResults) {
			return ctx.Err()
		}
	}
	deliveries := 1
	if w.cfg.Chaos.DuplicateDeliver {
		deliveries = 2
	}
	for i := 0; i < deliveries; i++ {
		status, err := w.api.PostJSON(ctx, "/v1/units/"+l.Unit+"/result", UnitResult{Worker: w.id, Token: l.Token, Results: counters(rs)}, nil)
		if status == http.StatusConflict {
			if i == 0 {
				return errStaleLease
			}
			return nil // duplicate delivery fenced — fine
		}
		if err != nil {
			return fmt.Errorf("reporting result: %w", err)
		}
	}
	w.UnitsDone.Add(1)
	w.log().InfoContext(obs.WithUnit(w.lctx(ctx), l.Unit), "unit done", "specs", len(rs))
	return nil
}

// heartbeatLoop beats on the derived interval until ctx ends,
// each beat carrying the node's gauge snapshot (unit counters plus the
// simulator's sampled throughput counters) for the coordinator's fleet
// metrics. A worker partitioned by chaos (drop-heartbeats) silently
// stops beating but keeps executing, which is exactly the failure the
// lease fencing exists for.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.timing.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !w.beating.Load() {
			continue
		}
		snap := sim.ReadObs()
		st := WorkerStatus{
			UnitsDone:      w.UnitsDone.Load(),
			UnitsLost:      w.UnitsLost.Load(),
			SimBranches:    snap.Branches,
			SimPredictions: snap.Predictions,
			ActiveRuns:     snap.ActiveRuns,
		}
		status, err := w.api.PostJSON(ctx, "/v1/workers/"+w.id+"/heartbeat", st, nil)
		if err != nil && status != http.StatusNotFound && ctx.Err() == nil {
			w.log().WarnContext(w.lctx(ctx), "heartbeat failed", "err", err)
		}
	}
}

// checkpointUpload is the body of POST /v1/units/{id}/checkpoint: the
// snapshot and the partial counters it carries, one set per leased spec
// in lease order, which the coordinator's progress events sum.
type checkpointUpload struct {
	Token    string         `json:"token"`
	Data     []byte         `json:"data"`
	Partials []UnitCounters `json:"partials"`
}

// splitUnitID parses "<job>.<workload>.<window>" (job ids contain no
// dots).
func splitUnitID(id string) (job string, wi, idx int, err error) {
	parts := strings.Split(id, ".")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("service: malformed unit id %q", id)
	}
	wi, err1 := strconv.Atoi(parts[1])
	idx, err2 := strconv.Atoi(parts[2])
	if parts[0] == "" || err1 != nil || err2 != nil {
		return "", 0, 0, fmt.Errorf("service: malformed unit id %q", id)
	}
	return parts[0], wi, idx, nil
}

// sleepCtx sleeps d unless ctx ends first; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}
