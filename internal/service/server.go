package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"prophetcritic/internal/obs"
)

// Server is the HTTP face of a Scheduler:
//
//	POST /v1/jobs             submit a JobSpec; 201 + job record
//	GET  /v1/jobs             list jobs: ?limit=&after= pagination
//	                          (ID-ordered, cursor in "next") and ?state=
//	                          filtering
//	GET  /v1/jobs/{id}        one job's record
//	GET  /v1/jobs/{id}/events NDJSON event stream (replays history, then
//	                          follows until the job is terminal)
//	GET  /v1/jobs/{id}/trace  the job's recorded span tree (queue →
//	                          workload → warmup/measure/shard/unit/
//	                          checkpoint), JSON
//	GET  /v1/results          the content-addressed result cache:
//	                          ?spec=&workload= filters
//	GET  /v1/predictors       predictor registry: every constructible
//	                          family with its parameter schema
//	GET  /healthz             liveness + drain state
//	GET  /metricsz            Prometheus text-format 0.0.4 exposition of
//	                          the scheduler's obs registry
//
// plus the cluster protocol (see EXPERIMENTS.md "Distributed
// simulation"):
//
//	POST /v1/workers                  register a worker node
//	POST /v1/workers/{id}/heartbeat   renew the worker's liveness deadline
//	POST /v1/units/lease              pull one work unit under a lease
//	POST /v1/units/{id}/checkpoint    upload a mid-unit "PCCK" snapshot
//	POST /v1/units/{id}/result        deliver the unit's counters, or the
//	                                  error that stopped the worker
//
// Every error response is one JSON envelope,
// {"error":{"code":"...","message":"..."}}: code "bad_request" with 400
// for malformed or invalid requests, "queue_full"/"client_quota" with
// 429 when admission fails, "draining" with 503 while draining (both
// with a Retry-After computed from queue depth), "not_found" with 404
// for unknown jobs/workers/units, "stale_lease" with 409 for cluster
// completions fenced out by a stale lease token, and "internal" with
// 500.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wires the routes for one scheduler.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	srv.mux.HandleFunc("GET /v1/jobs", srv.handleList)
	srv.mux.HandleFunc("GET /v1/jobs/{id}", srv.handleJob)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/events", srv.handleEvents)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/trace", srv.handleTrace)
	srv.mux.HandleFunc("GET /v1/results", srv.handleResults)
	srv.mux.HandleFunc("GET /v1/predictors", srv.handlePredictors)
	srv.mux.HandleFunc("GET /healthz", srv.handleHealth)
	srv.mux.HandleFunc("GET /metricsz", srv.handleMetrics)
	srv.mux.HandleFunc("POST /v1/workers", srv.handleWorkerRegister)
	srv.mux.HandleFunc("POST /v1/workers/{id}/heartbeat", srv.handleHeartbeat)
	srv.mux.HandleFunc("POST /v1/units/lease", srv.handleLease)
	srv.mux.HandleFunc("POST /v1/units/{id}/checkpoint", srv.handleUnitCheckpoint)
	srv.mux.HandleFunc("POST /v1/units/{id}/result", srv.handleUnitResult)
	return srv
}

// Handler returns the route multiplexer, wrapped so the worker
// correlation header (X-PC-Worker, stamped by the worker's APIClient)
// rides into every handler's context and onto its log records.
func (srv *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wid := r.Header.Get("X-PC-Worker"); wid != "" {
			r = r.WithContext(obs.WithWorker(r.Context(), wid))
		}
		srv.mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// APIError is the single error envelope every non-2xx response carries:
// a stable machine-readable code plus the human-readable message.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error envelope codes.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeQueueFull   = "queue_full"
	CodeClientQuota = "client_quota"
	CodeDraining    = "draining"
	CodeStaleLease  = "stale_lease"
	CodeInternal    = "internal"
)

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]APIError{"error": {Code: code, Message: err.Error()}})
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed job spec: %w", err))
		return
	}
	j, err := srv.sched.Submit(spec)
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusCreated, j)
	case errors.Is(err, ErrQueueFull):
		// Retry-After tracks the backlog (≈ one queue drain per worker),
		// so backpressure tells clients something true instead of "1".
		w.Header().Set("Retry-After", strconv.Itoa(srv.sched.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, CodeQueueFull, err)
	case errors.Is(err, ErrClientQuota):
		w.Header().Set("Retry-After", strconv.Itoa(srv.sched.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, CodeClientQuota, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(srv.sched.RetryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
	case errors.Is(err, ErrInternal):
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
	}
}

// JobList is the GET /v1/jobs response: one ID-ordered page plus the
// cursor of the page after it (empty on the last page). Pass it back as
// ?after= to continue; the ordering is stable across requests, so pages
// never skip or repeat a job that existed when paging began.
type JobList struct {
	Jobs []Job  `json:"jobs"`
	Next string `json:"next,omitempty"`
}

func (srv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if lq := q.Get("limit"); lq != "" {
		n, err := strconv.Atoi(lq)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: limit=%q: want a positive integer", lq))
			return
		}
		limit = n
	}
	state := q.Get("state")
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed:
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: state=%q: want one of queued, running, done, failed", state))
		return
	}
	after := q.Get("after")

	all := srv.sched.Jobs() // ID-ordered
	page := JobList{Jobs: []Job{}}
	for _, j := range all {
		if after != "" && j.ID <= after {
			continue
		}
		if state != "" && j.State != state {
			continue
		}
		if limit > 0 && len(page.Jobs) == limit {
			page.Next = page.Jobs[limit-1].ID
			break
		}
		page.Jobs = append(page.Jobs, j)
	}
	writeJSON(w, http.StatusOK, page)
}

func (srv *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := srv.sched.JobSnapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// ResultList is the GET /v1/results response: the cache cells matching
// the query, key-ordered.
type ResultList struct {
	Results []CacheEntry `json:"results"`
}

// handleResults serves the content-addressed result cache directly:
// every cell matching ?spec= (canonicalized through the budget grammar;
// a prophet-alone spec also matches hybrid cells led by it) and
// ?workload= (full identity, benchmark name, or trace-hash prefix).
func (srv *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	entries := srv.sched.CacheResults(q.Get("spec"), q.Get("workload"))
	if entries == nil {
		entries = []CacheEntry{}
	}
	writeJSON(w, http.StatusOK, ResultList{Results: entries})
}

// handleEvents streams a job's events as NDJSON: the history first, then
// live events until the job reaches a terminal state, the server drains,
// or the client disconnects. `?from=N` resumes after sequence number N
// (the last event the client saw), so a watcher that reconnects after a
// dropped stream observes every event exactly once — sequence numbers
// are per-job, strictly increasing, and stable across reconnects.
func (srv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	evlog, ok := srv.sched.Events(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("service: no job %q", id))
		return
	}
	from := 0
	if fq := r.URL.Query().Get("from"); fq != "" {
		n, err := strconv.Atoi(fq)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: from=%q: want a non-negative last-seen sequence number", fq))
			return
		}
		from = n // Seq k lives at history index k-1, so resuming after k starts at index k
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	for {
		events, ended := evlog.Snapshot(from)
		for _, e := range events {
			if enc.Encode(e) != nil {
				return // client gone
			}
		}
		from += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if ended {
			return
		}
		evlog.Wait(r.Context(), from)
		if r.Context().Err() != nil {
			return
		}
	}
}

// handleTrace serves a job's recorded span tree. Jobs that predate the
// tracer (terminal records loaded from disk) answer with an empty tree
// rather than a 404 — the job exists, its trace just was not recorded.
func (srv *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := srv.sched.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("service: no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handlePredictors serves the predictor registry for discovery: which
// families a job spec can name, their aliases and roles, the pinned
// Table 3 budgets, and the parameter schema of explicit-geometry specs.
func (srv *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Predictors())
}

func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := srv.sched.Metrics()
	status := "serving"
	if m.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  m.QueueDepth,
		"running": m.Running,
	})
}

// handleMetrics serves the scheduler's obs registry in strict
// Prometheus text format 0.0.4. Every metric name the old printf
// exposition emitted is preserved by the registry bridges — scrapers
// (chaos_smoke.sh, the cluster tests) parse them by exact name.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srv.sched.Registry().Handler().ServeHTTP(w, r)
}

// Cluster protocol handlers. Every server is a coordinator, so workers
// can be pointed at any pcserved and lease its jobs' units.

func (srv *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var reg WorkerRegistration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&reg); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed registration: %w", err))
		return
	}
	writeJSON(w, http.StatusCreated, srv.sched.co.register(reg.Name))
}

func (srv *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The body is optional: a bare beat renews liveness, a WorkerStatus
	// body additionally updates the fleet gauges.
	var status *WorkerStatus
	var st WorkerStatus
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&st)
	switch {
	case err == nil:
		status = &st
	case err == io.EOF: // no body
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed heartbeat: %w", err))
		return
	}
	if !srv.sched.co.heartbeat(id, status) {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("service: unknown worker %q (re-register)", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleLease long-polls: it holds an idle worker's call until a unit
// is eligible or the wait bound passes (204). A draining server answers
// 503, like a submit, so its workers back off instead of polling.
func (srv *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed lease request: %w", err))
		return
	}
	lease, err := srv.sched.co.leaseWait(r.Context(), req.Worker)
	switch {
	case err != nil:
		writeError(w, http.StatusNotFound, CodeNotFound, err)
	case lease != nil:
		writeJSON(w, http.StatusOK, lease)
	case srv.sched.draining.Load():
		w.Header().Set("Retry-After", strconv.Itoa(srv.sched.RetryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, CodeDraining, ErrDraining)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (srv *Server) handleUnitCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var up checkpointUpload
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&up); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed checkpoint upload: %w", err))
		return
	}
	if len(up.Data) < 5 || string(up.Data[:4]) != "PCCK" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: checkpoint upload for unit %q is not a PCCK snapshot", id))
		return
	}
	if err := srv.sched.co.storeCheckpoint(r.Context(), id, up.Token, up.Data, results(up.Partials)); err != nil {
		writeError(w, unitErrStatus(err), unitErrCode(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (srv *Server) handleUnitResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var ur UnitResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&ur); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("service: malformed unit result: %w", err))
		return
	}
	var err error
	switch {
	case ur.Error != "" && len(ur.Results) > 0:
		err = fmt.Errorf("%w: a failure report carries %d counter sets", errBadResult, len(ur.Results))
	case ur.Error != "":
		err = srv.sched.co.fail(id, ur.Token, ur.Error)
	default:
		err = srv.sched.co.complete(id, ur.Token, results(ur.Results))
	}
	if err != nil {
		writeError(w, unitErrStatus(err), unitErrCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

// unitErrStatus maps coordinator unit errors: stale tokens are fenced
// with 409 (the worker must drop the unit), a result of the wrong shape
// is a 400, everything else is an unknown unit.
func unitErrStatus(err error) int {
	switch {
	case errors.Is(err, errStaleLease):
		return http.StatusConflict
	case errors.Is(err, errBadResult):
		return http.StatusBadRequest
	}
	return http.StatusNotFound
}

func unitErrCode(err error) string {
	switch {
	case errors.Is(err, errStaleLease):
		return CodeStaleLease
	case errors.Is(err, errBadResult):
		return CodeBadRequest
	}
	return CodeNotFound
}
