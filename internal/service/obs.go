package service

// Telemetry wiring: every Scheduler owns an obs.Registry (bridging the
// operational atomics the scheduler, cache, pool, and coordinator
// already keep), an obs.Tracer recording per-job span trees, and the
// pcserved_stage_duration_seconds histogram the stage helpers feed.
// Metric names are part of the operational API — chaos_smoke.sh and the
// cluster tests scrape them by exact name — so the bridges reproduce
// the names the old printf /metricsz emitted, verbatim.

import (
	"strconv"
	"time"

	"prophetcritic/internal/obs"
	"prophetcritic/internal/pool"
	"prophetcritic/internal/sim"
)

// Stage names of the pcserved_stage_duration_seconds histogram.
const (
	stageQueueWait  = "queue_wait"
	stageWarmup     = "warmup"
	stageMeasure    = "measure"
	stageCheckpoint = "checkpoint_write"
	stageLease      = "lease_roundtrip"
)

// jobSpans tracks the open structural spans of one in-flight job: the
// root "job" span every later span hangs off, and the "queue" span
// closed when a worker picks the job up.
type jobSpans struct {
	root     int
	queue    int
	enqueued time.Time
}

// initObs builds the scheduler's registry, tracer, and stage histogram.
// Called once from New, before any job can run.
func (s *Scheduler) initObs() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.tracer = obs.NewTracer(0)
	s.spans = make(map[string]*jobSpans)
	s.stageDur = reg.HistogramVec("pcserved_stage_duration_seconds",
		"Duration of one job execution stage, by stage.", obs.DefBuckets, "stage")

	u64 := func(v interface{ Load() uint64 }) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}

	// Scheduler job counters.
	reg.CounterFunc("pcserved_jobs_submitted_total", "Jobs admitted to the queue.", u64(&s.submitted))
	reg.CounterFunc("pcserved_jobs_completed_total", "Jobs finished successfully.", u64(&s.completed))
	reg.CounterFunc("pcserved_jobs_failed_total", "Jobs ended in failure.", u64(&s.failed))
	reg.CounterFunc("pcserved_jobs_rejected_total", "Submissions rejected at admission.", u64(&s.rejected))
	reg.CounterFunc("pcserved_jobs_resumed_total", "Jobs resumed from a checkpoint after a restart.", u64(&s.resumed))
	reg.CounterFunc("pcserved_checkpoints_written_total", "Job checkpoint snapshots written.", u64(&s.ckWrites))
	reg.CounterFunc("pcserved_job_persist_errors_total", "Terminal job records that failed to persist.", u64(&s.persistErrs))
	reg.GaugeFunc("pcserved_queue_depth", "Jobs waiting in the queue.",
		func() float64 { return float64(s.q.Depth()) })
	reg.GaugeFunc("pcserved_jobs_running", "Jobs executing right now.",
		func() float64 { return float64(s.running.Load()) })
	reg.GaugeFunc("pcserved_draining", "1 while the scheduler drains, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// Result cache.
	reg.CounterFunc("pcserved_cache_hits_total", "Result-cache cell lookups answered without simulating.",
		func() float64 { return float64(s.cache.stats().hits) })
	reg.CounterFunc("pcserved_cache_misses_total", "Result-cache cell lookups that had to simulate.",
		func() float64 { return float64(s.cache.stats().misses) })
	reg.CounterFunc("pcserved_cache_stores_total", "Result-cache cells stored.",
		func() float64 { return float64(s.cache.stats().stores) })
	reg.GaugeFunc("pcserved_cache_entries", "Result-cache cells resident.",
		func() float64 { return float64(s.cache.stats().entries) })
	reg.GaugeFunc("pcserved_cache_bytes", "Result-cache bytes on disk.",
		func() float64 { return float64(s.cache.stats().bytes) })

	// Replay-form workload programs (workload.go's traceMemo): decoded
	// traces and materialized benchmark streams.
	reg.CounterFunc("pcserved_trace_memo_hits_total", "Trace and bench loads served by a kept replay-form program.",
		func() float64 { return float64(s.traces.stats().hits) })
	reg.CounterFunc("pcserved_trace_memo_misses_total", "Trace and bench loads that decoded the file or ran the models.",
		func() float64 { return float64(s.traces.stats().misses) })
	reg.GaugeFunc("pcserved_trace_memo_bytes", "Bytes of the replay-form programs kept: decoded traces, and the outcome bitmaps of materialized benchmarks.",
		func() float64 { return float64(s.traces.stats().bytes) })

	// Shared worker pool (process-global).
	reg.CounterFunc("pool_jobs_run_total", "Jobs completed on the shared worker pool.",
		func() float64 { return float64(pool.Snapshot().JobsRun) })
	reg.GaugeFunc("pool_max_in_flight", "High-water mark of concurrently executing pool jobs.",
		func() float64 { return float64(pool.Snapshot().MaxInFlight) })

	// Cluster coordinator.
	reg.CounterFunc("pcserved_workers_registered_total", "Worker registrations accepted.", u64(&s.co.registered))
	reg.GaugeFunc("pcserved_workers_live", "Workers with a fresh heartbeat.",
		func() float64 { return float64(s.co.Metrics().WorkersLive) })
	reg.CounterFunc("pcserved_heartbeats_total", "Worker heartbeats received.", u64(&s.co.heartbeats))
	reg.CounterFunc("pcserved_units_leased_total", "Unit leases issued to workers.", u64(&s.co.leased))
	reg.CounterFunc("pcserved_leases_expired_total", "Leases expired and re-issued.", u64(&s.co.expired))
	reg.CounterFunc("pcserved_units_failed_total", "Leases released early because the worker could not run the unit.", u64(&s.co.failed))
	reg.CounterFunc("pcserved_units_retried_total", "Units leased more than once.", u64(&s.co.retried))
	reg.CounterFunc("pcserved_units_completed_total", "Units completed (fleet or local).", u64(&s.co.completed))
	reg.CounterFunc("pcserved_units_local_total", "Units leased by the server's own pool.", u64(&s.co.local))
	reg.GaugeFunc("pcserved_units_pending", "Units waiting for a lease.",
		func() float64 { return float64(s.co.Metrics().UnitsPending) })
	reg.CounterFunc("pcserved_results_fenced_total", "Unit results rejected by lease fencing.", u64(&s.co.fenced))
	reg.CounterFunc("pcserved_results_duplicate_total", "Duplicate unit results acknowledged idempotently.", u64(&s.co.duplicate))
	reg.CounterFunc("pcserved_unit_checkpoints_stored_total", "Mid-unit snapshots stored.", u64(&s.co.ckStored))

	// Simulator throughput (process-global sampled counters; exact at
	// window boundaries, see internal/sim's obs instrumentation).
	reg.CounterFunc("pcserved_sim_branches_total", "Branches simulated, sampled at window granularity.",
		func() float64 { return float64(sim.ReadObs().Branches) })
	reg.CounterFunc("pcserved_sim_predictions_total", "Predictions made (branches x resident hybrids).",
		func() float64 { return float64(sim.ReadObs().Predictions) })
	reg.GaugeFunc("pcserved_sim_active_runs", "Simulation runs open right now.",
		func() float64 { return float64(sim.ReadObs().ActiveRuns) })

	// Fleet aggregation: each worker's last heartbeat snapshot,
	// re-exported under a worker label.
	fleet := func(pick func(WorkerStatus) float64) func() []obs.LabeledValue {
		return func() []obs.LabeledValue {
			sts := s.co.workerStatuses()
			out := make([]obs.LabeledValue, 0, len(sts))
			for id, st := range sts {
				out = append(out, obs.LabeledValue{Labels: []string{id}, Value: pick(st)})
			}
			return out
		}
	}
	workerLabel := []string{"worker"}
	reg.GaugeVecFunc("pcserved_worker_units_done", "Units completed, as last reported by each worker's heartbeat.",
		workerLabel, fleet(func(st WorkerStatus) float64 { return float64(st.UnitsDone) }))
	reg.GaugeVecFunc("pcserved_worker_units_lost", "Units abandoned or fenced, as last reported by each worker.",
		workerLabel, fleet(func(st WorkerStatus) float64 { return float64(st.UnitsLost) }))
	reg.GaugeVecFunc("pcserved_worker_sim_branches", "Branches simulated on each worker, from its heartbeat snapshot.",
		workerLabel, fleet(func(st WorkerStatus) float64 { return float64(st.SimBranches) }))
	reg.GaugeVecFunc("pcserved_worker_sim_predictions", "Predictions made on each worker, from its heartbeat snapshot.",
		workerLabel, fleet(func(st WorkerStatus) float64 { return float64(st.SimPredictions) }))
	reg.GaugeVecFunc("pcserved_worker_active_runs", "Simulation runs open on each worker, from its heartbeat snapshot.",
		workerLabel, fleet(func(st WorkerStatus) float64 { return float64(st.ActiveRuns) }))

	// The coordinator records unit spans and lease round-trips itself.
	s.co.tracer = s.tracer
	s.co.stageDur = s.stageDur
}

// Registry exposes the scheduler's metric registry (the /metricsz
// backend; tests scrape and strict-parse it directly).
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Trace returns the recorded span tree of one job. ok is false only for
// jobs the scheduler does not know; a known job that predates the
// tracer (loaded terminal from disk) yields an empty trace.
func (s *Scheduler) Trace(id string) (obs.Trace, bool) {
	s.mu.Lock()
	_, known := s.jobs[id]
	s.mu.Unlock()
	if !known {
		return obs.Trace{}, false
	}
	if t, ok := s.tracer.Get(id); ok {
		return t, true
	}
	return obs.Trace{Job: id, Spans: []obs.Span{}}, true
}

// observeStage records one stage duration in the stage histogram.
func (s *Scheduler) observeStage(stage string, start time.Time) {
	s.stageDur.With(stage).ObserveSince(start)
}

// traceSubmit opens the job's root span plus the queue span, at
// admission time.
func (s *Scheduler) traceSubmit(id string) {
	root := s.tracer.StartSpan(id, 0, "job", nil)
	queue := s.tracer.StartSpan(id, root, "queue", nil)
	s.spanMu.Lock()
	s.spans[id] = &jobSpans{root: root, queue: queue, enqueued: time.Now()}
	s.spanMu.Unlock()
}

// traceRunStart closes the queue span (observing queue wait) and
// returns the root span id, opening one lazily for jobs that were
// re-enqueued from disk and never passed Submit.
func (s *Scheduler) traceRunStart(j *Job) int {
	s.spanMu.Lock()
	js, ok := s.spans[j.ID]
	if !ok {
		js = &jobSpans{}
		s.spans[j.ID] = js
	}
	if js.root == 0 {
		attrs := map[string]string(nil)
		if j.Resumed {
			attrs = map[string]string{"resumed": "true"}
		}
		s.spanMu.Unlock()
		root := s.tracer.StartSpan(j.ID, 0, "job", attrs)
		s.spanMu.Lock()
		js.root = root
	}
	queue, enq := js.queue, js.enqueued
	js.queue = 0
	root := js.root
	s.spanMu.Unlock()
	if queue != 0 {
		s.tracer.EndSpan(j.ID, queue)
		s.observeStage(stageQueueWait, enq)
	}
	return root
}

// traceJobEnd closes the root span with a terminal state attribute and
// forgets the per-job span bookkeeping (the trace itself stays in the
// tracer until evicted).
func (s *Scheduler) traceJobEnd(id, state string) {
	s.spanMu.Lock()
	js, ok := s.spans[id]
	delete(s.spans, id)
	s.spanMu.Unlock()
	if !ok {
		return
	}
	s.tracer.EndSpan(id, js.queue) // no-ops on span 0
	s.tracer.Annotate(id, js.root, map[string]string{"state": state})
	s.tracer.EndSpan(id, js.root)
}

// traceCheckpoint wraps one checkpoint write in a "checkpoint" span and
// the checkpoint_write stage histogram.
func (s *Scheduler) traceCheckpoint(jobID string, parent int, write func() error) error {
	id := s.tracer.StartSpan(jobID, parent, "checkpoint", nil)
	start := time.Now()
	err := write()
	s.tracer.EndSpan(jobID, id)
	s.observeStage(stageCheckpoint, start)
	return err
}

// spanAttrs is a tiny helper for the common workload/window attribute
// maps.
func spanAttrs(kv ...string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// itoa shortens the window-index attribute call sites.
func itoa(n int) string { return strconv.Itoa(n) }
