package service

// Observability contract tests: /metricsz must round-trip the strict
// text-format parser, the trace endpoint must return a complete span
// tree for every execution mode (stepped, sharded, clustered), and a
// worker heartbeat must surface as worker-labeled fleet gauges.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"prophetcritic/internal/obs"
)

// fetchTrace GETs a job's span tree from the trace endpoint.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) obs.Trace {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return tr
}

// parseScrape fetches /metricsz and runs it through the strict parser,
// so any exposition-format drift (duplicate families, unsorted
// histogram buckets, samples without TYPE lines) fails the test.
func parseScrape(t *testing.T, ts *httptest.Server) obs.Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("wrong scrape Content-Type %q", ct)
	}
	m, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not round-trip the strict parser: %v", err)
	}
	return m
}

// byName indexes a trace's spans by name, failing if any span is still
// open — a terminal job must have closed its whole tree.
func byName(t *testing.T, tr obs.Trace) map[string][]obs.Span {
	t.Helper()
	ids := map[int]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	out := map[string][]obs.Span{}
	for _, sp := range tr.Spans {
		if sp.End.IsZero() {
			t.Fatalf("span %d (%s) never ended", sp.ID, sp.Name)
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %d (%s) has dangling parent %d", sp.ID, sp.Name, sp.Parent)
		}
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

// need asserts exactly n spans of the given name and returns them.
func need(t *testing.T, spans map[string][]obs.Span, name string, n int) []obs.Span {
	t.Helper()
	if len(spans[name]) != n {
		t.Fatalf("want %d %q span(s), got %d (tree: %v)", n, name, len(spans[name]), keys(spans))
	}
	return spans[name]
}

func keys(m map[string][]obs.Span) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// A finished job's scrape must parse strictly and carry the lifecycle
// counters, the stage histogram, and the simulator throughput counters.
func TestMetricszStrictRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)

	m := parseScrape(t, ts)
	if v, err := m.Value("pcserved_jobs_completed_total"); err != nil || v != 1 {
		t.Fatalf("pcserved_jobs_completed_total = %v (%v), want 1", v, err)
	}
	if v, err := m.Value("pcserved_jobs_submitted_total"); err != nil || v != 1 {
		t.Fatalf("pcserved_jobs_submitted_total = %v (%v), want 1", v, err)
	}
	// The stage histogram must expose per-stage buckets for at least the
	// queue-wait and measure stages of the finished job.
	for _, stage := range []string{stageQueueWait, stageMeasure, stageCheckpoint} {
		v, err := m.LabeledValue("pcserved_stage_duration_seconds_count", map[string]string{"stage": stage})
		if err != nil {
			t.Fatalf("stage %q missing from histogram: %v", stage, err)
		}
		if v < 1 {
			t.Fatalf("stage %q observed %v times, want >= 1", stage, v)
		}
	}
	fam := m["pcserved_stage_duration_seconds"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("pcserved_stage_duration_seconds is not a histogram family: %+v", fam)
	}
	// Simulator counters are registered even when sampling is off (the
	// library default); they read 0 here but must be present and typed.
	for _, name := range []string{"pcserved_sim_branches_total", "pcserved_sim_predictions_total", "pcserved_sim_active_runs"} {
		if _, err := m.Value(name); err != nil {
			t.Fatalf("%s missing from scrape: %v", name, err)
		}
	}
}

// needUnits asserts the workload's unit spans: each a child of the
// workload span carrying window and measure attributes plus mode=local
// (local) or its worker and attempt, covering n distinct windows — one
// span per window when local; a re-leased unit adds a span per attempt.
// It returns the unit spans by ID.
func needUnits(t *testing.T, spans map[string][]obs.Span, wl obs.Span, n int, local bool) map[int]obs.Span {
	t.Helper()
	if local {
		need(t, spans, "unit", n)
	}
	units := map[int]obs.Span{}
	windows := map[string]bool{}
	for _, sp := range spans["unit"] {
		if sp.Parent != wl.ID {
			t.Fatalf("unit span parent = %d, want workload span %d", sp.Parent, wl.ID)
		}
		if sp.Attrs["window"] == "" || sp.Attrs["measure"] == "" || sp.Attrs["unit"] == "" {
			t.Fatalf("unit span lacks unit/window/measure attrs: %v", sp.Attrs)
		}
		if local && sp.Attrs["mode"] != "local" {
			t.Fatalf("local unit span lacks mode=local: %v", sp.Attrs)
		}
		if !local && (sp.Attrs["worker"] == "" || sp.Attrs["attempt"] == "") {
			t.Fatalf("leased unit span lacks worker/attempt attrs: %v", sp.Attrs)
		}
		windows[sp.Attrs["window"]] = true
		units[sp.ID] = sp
	}
	if len(windows) != n {
		t.Fatalf("unit windows not distinct: %v", windows)
	}
	return units
}

// needUnder asserts that every span of the given name hangs off one of
// the units, one per unit when perUnit is set (at least one overall
// otherwise).
func needUnder(t *testing.T, spans map[string][]obs.Span, name string, units map[int]obs.Span, perUnit bool) {
	t.Helper()
	seen := map[int]int{}
	for _, sp := range spans[name] {
		if _, ok := units[sp.Parent]; !ok {
			t.Fatalf("%s span parent = %d, want a unit span", name, sp.Parent)
		}
		seen[sp.Parent]++
	}
	if len(spans[name]) == 0 {
		t.Fatalf("no %s spans in tree: %v", name, keys(spans))
	}
	if perUnit && (len(seen) != len(units) || len(spans[name]) != len(units)) {
		t.Fatalf("%d %s span(s) over %d of %d units, want one per unit", len(spans[name]), name, len(seen), len(units))
	}
}

// A stepped (unsharded) job must leave a complete span tree: a closed
// root holding queue and workload spans, the workload's one unit span
// (window 0) holding warmup, measure, and checkpoint spans, with intact
// parent links.
func TestTraceSteppedJob(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	j, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)

	tr := fetchTrace(t, ts, j.ID)
	if tr.Job != j.ID {
		t.Fatalf("trace is for job %q, want %q", tr.Job, j.ID)
	}
	spans := byName(t, tr)
	root := need(t, spans, "job", 1)[0]
	if root.Parent != 0 {
		t.Fatalf("job span has parent %d, want root", root.Parent)
	}
	if root.Attrs["state"] != "done" {
		t.Fatalf("job span state attr = %q, want done", root.Attrs["state"])
	}
	need(t, spans, "queue", 1)
	wl := need(t, spans, "workload", 1)[0]
	if wl.Parent != root.ID {
		t.Fatalf("workload span parent = %d, want job span %d", wl.Parent, root.ID)
	}
	units := needUnits(t, spans, wl, 1, true)
	for _, u := range units {
		if u.Attrs["window"] != "0" || u.Attrs["measure"] != "24000" {
			t.Fatalf("stepped unit attrs %v, want window 0 measuring 24000", u.Attrs)
		}
	}
	needUnder(t, spans, "warmup", units, true)
	needUnder(t, spans, "measure", units, true)
	// 24k measured branches at ckpt-every 4k: several checkpoint writes.
	needUnder(t, spans, "checkpoint", units, false)

	// Unknown jobs 404 with the standard error envelope.
	status, code, _ := getError(t, ts.URL+"/v1/jobs/zzzzzz/trace")
	if status != http.StatusNotFound || code != "not_found" {
		t.Fatalf("unknown-job trace: status %d code %q, want 404 not_found", status, code)
	}
}

// A sharded job must carry one local unit span per window under the
// workload span, each with its own warmup and measure spans.
func TestTraceShardedJob(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	spec := fastSpec()
	spec.Shards = 4
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)

	spans := byName(t, fetchTrace(t, ts, j.ID))
	wl := need(t, spans, "workload", 1)[0]
	units := needUnits(t, spans, wl, 4, true)
	needUnder(t, spans, "warmup", units, true)
	needUnder(t, spans, "measure", units, true)
	// Each finished window but the last writes the job checkpoint.
	needUnder(t, spans, "checkpoint", units, false)
	if len(spans["shard"]) != 0 {
		t.Fatalf("sharded job still traces shard spans: %v", keys(spans))
	}
}

// A clustered job must trace each work unit — leased, executed, and
// completed by a registered worker — as a closed unit span naming its
// worker, and the worker's heartbeat snapshot must surface as
// worker-labeled fleet gauges on /metricsz.
func TestTraceClusterJobAndFleetGauges(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), clusterConfig)
	defer s.Kill()
	w, stop, _ := startWorker(t, ts, "w-obs", Chaos{})
	defer stop()
	waitRegistered(t, w)

	spec := fastSpec()
	spec.Shards = 4
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)

	spans := byName(t, fetchTrace(t, ts, j.ID))
	wl := need(t, spans, "workload", 1)[0]
	needUnits(t, spans, wl, 4, false)

	// The lease round-trip histogram observed each completed unit.
	m := parseScrape(t, ts)
	v, err := m.LabeledValue("pcserved_stage_duration_seconds_count", map[string]string{"stage": stageLease})
	if err != nil || v < 4 {
		t.Fatalf("lease_roundtrip count = %v (%v), want >= 4", v, err)
	}

	// Fleet gauges appear once a heartbeat carries the worker's status
	// snapshot; poll for the first beat after the units completed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m = parseScrape(t, ts)
		fam := m["pcserved_worker_units_done"]
		if fam != nil && len(fam.Samples) > 0 {
			sp := fam.Samples[0]
			if sp.Labels["worker"] == "" {
				t.Fatalf("fleet gauge sample lacks worker label: %+v", sp)
			}
			if sp.Value >= 4 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet gauge pcserved_worker_units_done never reached 4; family: %+v", fam)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range []string{"pcserved_worker_units_lost", "pcserved_worker_sim_branches", "pcserved_worker_sim_predictions", "pcserved_worker_active_runs"} {
		fam := m[name]
		if fam == nil || len(fam.Samples) == 0 {
			t.Fatalf("fleet gauge %s missing from scrape", name)
		}
	}
}
