package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, dir string, mod func(*Config)) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := newTestSched(t, dir, mod)
	s.Start()
	ts := httptest.NewServer(NewServer(s).Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submitHTTP(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func specJSON(t *testing.T, spec JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// errEnvelope asserts the decoded body is the single v1 error envelope
// {"error":{"code","message"}} and returns its fields — every 4xx/5xx
// assertion goes through here, so a handler that strays from the
// envelope fails loudly.
func errEnvelope(t *testing.T, body map[string]any) (code, message string) {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error body %v does not carry the {\"error\":{...}} envelope", body)
	}
	code, _ = env["code"].(string)
	message, _ = env["message"].(string)
	if code == "" || message == "" {
		t.Fatalf("error envelope %v lacks code or message", env)
	}
	return code, message
}

// getError GETs a path expected to fail and returns status + envelope.
func getError(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: non-JSON error body: %v", url, err)
	}
	code, msg := errEnvelope(t, body)
	return resp.StatusCode, code, msg
}

// Malformed and invalid job specs are 400s with a JSON error body.
func TestSubmitBadRequests(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	cases := []struct {
		name string
		body string
	}{
		{"broken JSON", `{"prophet": `},
		{"unknown field", `{"prophet":"2Bc-gskew:8","benches":["gcc"],"warp_drive":9}`},
		// The retired engine-selection field is unknown now, like any other.
		{"retired no_specialize", `{"prophet":"2Bc-gskew:8","benches":["gcc"],"no_specialize":true}`},
		{"malformed prophet", `{"prophet":"gskew","benches":["gcc"]}`},
		{"unknown benchmark", `{"prophet":"2Bc-gskew:8","benches":["nope"]}`},
		{"no workloads", `{"prophet":"2Bc-gskew:8"}`},
		{"trace escape", `{"prophet":"2Bc-gskew:8","traces":["../x.trc"]}`},
		{"fb over BOR", `{"prophet":"2Bc-gskew:8","critic":"tagged gshare:8","future_bits":19,"benches":["gcc"]}`},
		// Registry-grammar rejections: none of these may reach Build (a
		// worker panic would surface as a 500 or a dropped connection,
		// not the 400 asserted here).
		{"unknown prophet kind", `{"prophet":"neural:8","benches":["gcc"]}`},
		{"budget out of range", `{"prophet":"gshare:0","benches":["gcc"]}`},
		{"huge budget", `{"prophet":"gshare:99999999","benches":["gcc"]}`},
		{"geometry not a power of two", `{"prophet":"gshare(entries=100)","benches":["gcc"]}`},
		{"unknown parameter", `{"prophet":"gshare(warp=1)","benches":["gcc"]}`},
		{"parameter out of range", `{"prophet":"local(hist=40)","benches":["gcc"]}`},
		{"bad critic geometry", `{"prophet":"2Bc-gskew:8","critic":"tagged gshare(ways=99)","benches":["gcc"]}`},
		{"fb into history-less critic", `{"prophet":"2Bc-gskew:8","critic":"bimodal:8","future_bits":1,"benches":["gcc"]}`},
		// local's hist parameter is per-branch history, not BOR reach:
		// the built predictor reads zero global-history bits, so future
		// bits must be rejected here, not panic in a worker.
		{"fb into local critic", `{"prophet":"2Bc-gskew:8","critic":"local:8","future_bits":1,"benches":["gcc"]}`},
		{"fb over tournament ghist", `{"prophet":"2Bc-gskew:8","critic":"tournament:8","future_bits":15,"benches":["gcc"]}`},
		// Multi-spec schema rejections.
		{"no predictor spec", `{"benches":["gcc"]}`},
		{"empty specs", `{"specs":[],"benches":["gcc"]}`},
		{"spec alias conflict", `{"spec":"gshare:8","specs":["gshare:16"],"benches":["gcc"]}`},
		{"prophet alias conflict", `{"prophet":"gshare:8","specs":["gshare:16"],"benches":["gcc"]}`},
		{"duplicate cell", `{"specs":["gshare:8","gshare:8"],"benches":["gcc"]}`},
		{"bad spec among many", `{"specs":["gshare:8","neural:8"],"benches":["gcc"]}`},
	}
	for _, tc := range cases {
		resp, body := submitHTTP(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if code, _ := errEnvelope(t, body); code != CodeBadRequest {
			t.Errorf("%s: code %q, want %q", tc.name, code, CodeBadRequest)
		}
	}
	if m := s.Metrics(); m.Submitted != 0 {
		t.Errorf("bad requests counted as submissions: %d", m.Submitted)
	}
}

// GET /v1/predictors serves the registry for discovery: every family,
// with aliases, roles, pinned Table 3 budgets, and the parameter schema
// explicit-geometry specs accept.
func TestPredictorsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	resp, err := http.Get(ts.URL + "/v1/predictors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var kinds []PredictorInfo
	if err := json.NewDecoder(resp.Body).Decode(&kinds); err != nil {
		t.Fatal(err)
	}
	byName := map[string]PredictorInfo{}
	for _, k := range kinds {
		byName[k.Name] = k
	}
	for _, want := range []string{
		"gshare", "perceptron", "2Bc-gskew", "tagged gshare",
		"filtered perceptron", "bimodal", "local", "tournament", "yags",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("predictors listing lacks %q (have %d kinds)", want, len(kinds))
		}
	}
	tg := byName["tagged gshare"]
	if !tg.Critic || len(tg.TableKB) != 5 || len(tg.Params) == 0 {
		t.Errorf("tagged gshare record incomplete: %+v", tg)
	}
	if to := byName["tournament"]; to.Critic || len(to.TableKB) != 0 || len(to.Params) == 0 {
		t.Errorf("tournament record incomplete: %+v", to)
	}
	// The schema is actionable: every listed default is accepted back.
	for _, k := range kinds {
		for _, p := range k.Params {
			if p.Min > p.Default || p.Default > p.Max {
				t.Errorf("%s.%s default %d outside [%d, %d]", k.Name, p.Name, p.Default, p.Min, p.Max)
			}
		}
	}
}

// Families outside Table 3 run as prophets end to end through the job
// API — the registry acceptance criterion for the service layer.
func TestNewFamilyProphetJobs(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	specs := []JobSpec{
		{Benches: []string{"gcc"}, Prophet: "tournament:8", Critic: "none", Warmup: 2_000, Measure: 8_000},
		{Benches: []string{"gcc"}, Prophet: "yags:8", Critic: "tagged gshare:8", FutureBits: 1, Warmup: 2_000, Measure: 8_000},
		{Benches: []string{"gcc"}, Prophet: "gshare(entries=8192,hist=13)", Critic: "none", Warmup: 2_000, Measure: 8_000},
	}
	for i, spec := range specs {
		resp, body := submitHTTP(t, ts, specJSON(t, spec))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: status %d: %v", spec.Prophet, resp.StatusCode, body["error"])
		}
		id := fmt.Sprint(body["id"])
		j := waitState(t, s, id, StateDone)
		if len(j.Rows) != 1 || j.Rows[0].Branches == 0 {
			t.Errorf("job %d (%s): rows %+v", i, spec.Prophet, j.Rows)
		}
	}
}

// A full queue and an exhausted client quota both come back as 429 with
// Retry-After; the rejected job leaves no trace.
func TestSubmitQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), func(c *Config) {
		c.QueueCap = 1
		c.PerClient = 2
		c.CheckpointEvery = 2_000
	})
	defer s.Kill()

	long := fastSpec()
	long.Measure = 5_000_000 // keeps the single worker busy for the whole test
	if resp, _ := submitHTTP(t, ts, specJSON(t, long)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// Wait until the worker picks it up so the queue slot frees.
	waitState(t, s, "j000000", StateRunning)

	if resp, _ := submitHTTP(t, ts, specJSON(t, fastSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit (fills queue): %d", resp.StatusCode)
	}
	resp, body := submitHTTP(t, ts, specJSON(t, fastSpec()))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code, msg := errEnvelope(t, body); code != CodeQueueFull || !strings.Contains(msg, "queue") {
		t.Errorf("queue-full envelope %q %q", code, msg)
	}

	// Per-client quota: a distinct client is admitted to the queue-full
	// check first, so use a fresh server for a clean quota 429.
	s2, ts2 := newTestServer(t, t.TempDir(), func(c *Config) {
		c.QueueCap = 64
		c.PerClient = 1
		c.CheckpointEvery = 2_000
	})
	defer s2.Kill()
	long2 := long
	long2.Client = "alice"
	if resp, _ := submitHTTP(t, ts2, specJSON(t, long2)); resp.StatusCode != http.StatusCreated {
		t.Fatal("alice's first job rejected")
	}
	resp, body = submitHTTP(t, ts2, specJSON(t, long2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota submit: %d, want 429", resp.StatusCode)
	}
	if code, msg := errEnvelope(t, body); code != CodeClientQuota || !strings.Contains(msg, "quota") {
		t.Errorf("quota envelope %q %q", code, msg)
	}
	// Another client still gets in.
	other := fastSpec()
	other.Client = "bob"
	if resp, _ := submitHTTP(t, ts2, specJSON(t, other)); resp.StatusCode != http.StatusCreated {
		t.Error("bob rejected by alice's quota")
	}
	if m := s2.Metrics(); m.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", m.Rejected)
	}
}

// The happy-path HTTP lifecycle: submit, status, NDJSON stream to the
// terminal event, health and metrics surfaces.
func TestHTTPLifecycle(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	resp, body := submitHTTP(t, ts, specJSON(t, fastSpec()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := fmt.Sprint(body["id"])
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+id {
		t.Errorf("Location %q", loc)
	}

	// Stream events until the terminal line.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Type != "done" || len(last.Rows) != 1 {
		t.Fatalf("terminal event %+v", last)
	}

	// Status reflects completion and carries the same rows.
	st, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.NewDecoder(st.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if j.State != StateDone || !reflect.DeepEqual(j.Rows, last.Rows) {
		t.Fatalf("status %+v vs terminal rows %+v", j, last.Rows)
	}

	// List includes the job; unknown IDs are 404.
	if resp, err := http.Get(ts.URL + "/v1/jobs"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if status, code, _ := getError(t, ts.URL+"/v1/jobs/zzz"); status != http.StatusNotFound || code != CodeNotFound {
		t.Fatalf("unknown job: %d %q", status, code)
	}

	// Health and metrics.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if health["status"] != "serving" {
		t.Errorf("health %v", health)
	}
	mr, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	mr.Body.Close()
	for _, metric := range []string{
		"pcserved_jobs_submitted_total 1",
		"pcserved_jobs_completed_total 1",
		"pool_jobs_run_total",
		"pool_max_in_flight",
		"pcserved_checkpoints_written_total",
		"pcserved_job_persist_errors_total 0",
		// The job's bench load missed and kept gcc's stream through the
		// job's window, in replay form, charged its outcome bitmap only
		// (the blocks are program.Load's).
		"pcserved_trace_memo_hits_total 0",
		"pcserved_trace_memo_misses_total 1",
		fmt.Sprintf("pcserved_trace_memo_bytes %d", (fastSpec().Warmup+fastSpec().Measure+63)/64*8),
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metricsz lacks %q:\n%s", metric, buf.String())
		}
	}
}

// Graceful shutdown mid-job over HTTP: drain checkpoints the running
// job, submits are 503, and a restarted server resumes and finishes with
// metrics bit-identical to the direct run.
func TestHTTPShutdownMidJobAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	spec.Measure = 120_000
	want := directRows(t, spec)

	s, ts := newTestServer(t, dir, func(c *Config) { c.CheckpointEvery = 2_000 })
	resp, body := submitHTTP(t, ts, specJSON(t, spec))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := fmt.Sprint(body["id"])

	// Wait for the first progress event, then drain.
	log, _ := s.Events(id)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if events, _ := log.Snapshot(0); len(events) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before drain")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Draining: health reports it and submits bounce with 503.
	hr, _ := http.Get(ts.URL + "/healthz")
	var health map[string]any
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if health["status"] != "draining" {
		t.Errorf("health during drain %v", health)
	}
	if resp, body := submitHTTP(t, ts, specJSON(t, fastSpec())); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	} else if code, _ := errEnvelope(t, body); code != CodeDraining {
		t.Errorf("drain envelope code %q", code)
	}
	ts.Close()

	// Restart over the same data directory.
	s2, ts2 := newTestServer(t, dir, nil)
	defer s2.Kill()
	stream, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var events []Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	sawResumed := false
	for _, e := range events {
		sawResumed = sawResumed || e.Type == "resumed"
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("terminal event %+v", last)
	}
	if !sawResumed && last.Type == "done" {
		// The job may legitimately have finished before the drain landed;
		// in that case the resume machinery was not exercised, but the
		// result contract below still must hold.
		t.Log("job completed before drain; resume not exercised this run")
	}
	if !reflect.DeepEqual(last.Rows, want) {
		t.Errorf("resumed rows = %+v\nwant %+v", last.Rows, want)
	}
}

// readEvents consumes n events (or all, n < 0) from one stream
// connection, then closes it — a controlled mid-stream disconnect.
func readEvents(t *testing.T, url string, n int) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for (n < 0 || len(events) < n) && sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	return events
}

// A watcher that loses its stream mid-job and reconnects with
// ?from=<last seq> must observe every event exactly once: no gap at the
// disconnect point, no replay of what it already saw.
func TestEventStreamReconnectExactlyOnce(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()
	resp, body := submitHTTP(t, ts, specJSON(t, fastSpec()))
	resp.Body.Close()
	id := body["id"].(string)
	waitState(t, s, id, StateDone)

	url := ts.URL + "/v1/jobs/" + id + "/events"
	full := readEvents(t, url, -1)
	if len(full) < 4 {
		t.Fatalf("want several events for a checkpointed job, got %d", len(full))
	}
	for i, e := range full {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d; want dense 1..N", i, e.Seq)
		}
	}

	// Disconnect after two events, reconnect from the last seen seq.
	head := readEvents(t, url, 2)
	tail := readEvents(t, url+fmt.Sprintf("?from=%d", head[len(head)-1].Seq), -1)
	got := append(head, tail...)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("reconnected stream differs:\n got %+v\nwant %+v", got, full)
	}
	seen := map[int]int{}
	for _, e := range got {
		seen[e.Seq]++
	}
	for seq, count := range seen {
		if count != 1 {
			t.Errorf("seq %d delivered %d times", seq, count)
		}
	}
	if len(seen) != len(full) {
		t.Errorf("saw %d distinct seqs, want %d", len(seen), len(full))
	}

	// A malformed resume cursor is a 400, not a silent full replay.
	for _, bad := range []string{"x", "-1"} {
		status, code, _ := getError(t, url+"?from="+bad)
		if status != http.StatusBadRequest || code != CodeBadRequest {
			t.Errorf("from=%s: %d %q, want 400 %q", bad, status, code, CodeBadRequest)
		}
	}
}

// Every cluster-protocol failure path speaks the same error envelope:
// unknown workers and units are not_found, stale tokens are fenced as
// stale_lease with 409.
func TestClusterErrorEnvelope(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("POST %s: non-JSON error body: %v", path, err)
		}
		code, _ := errEnvelope(t, m)
		return resp.StatusCode, code
	}
	if status, code := post("/v1/workers/ghost/heartbeat", ""); status != http.StatusNotFound || code != CodeNotFound {
		t.Errorf("ghost heartbeat: %d %q", status, code)
	}
	if status, code := post("/v1/units/lease", `{"worker":"ghost"}`); status != http.StatusNotFound || code != CodeNotFound {
		t.Errorf("ghost lease: %d %q", status, code)
	}
	if status, code := post("/v1/units/nope/result", `{"worker":"w","token":"t"}`); status != http.StatusNotFound || code != CodeNotFound {
		t.Errorf("unknown unit result: %d %q", status, code)
	}
	if status, code := post("/v1/units/lease", `{`); status != http.StatusBadRequest || code != CodeBadRequest {
		t.Errorf("malformed lease: %d %q", status, code)
	}
}

// GET /v1/jobs pages in ID order behind ?limit=&after= and filters on
// ?state=, with the cursor of the next page in the response.
func TestJobsPaginationAndFilter(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), nil)
	defer s.Kill()

	spec := fastSpec()
	spec.Warmup, spec.Measure = 500, 1_000
	var ids []string
	for i := 0; i < 3; i++ {
		sp := spec
		sp.Specs = []string{[]string{"gshare:1", "gshare:2", "gshare:4"}[i]}
		sp.Prophet = ""
		resp, body := submitHTTP(t, ts, specJSON(t, sp))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, fmt.Sprint(body["id"]))
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}

	getPage := func(query string) JobList {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s: status %d", query, resp.StatusCode)
		}
		var page JobList
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	full := getPage("")
	if len(full.Jobs) != 3 || full.Next != "" {
		t.Fatalf("unpaged list: %d jobs, next %q", len(full.Jobs), full.Next)
	}
	for i := 1; i < len(full.Jobs); i++ {
		if full.Jobs[i-1].ID >= full.Jobs[i].ID {
			t.Fatalf("list not ID-ordered: %s before %s", full.Jobs[i-1].ID, full.Jobs[i].ID)
		}
	}

	// Walk the pages and reassemble the full list exactly.
	var walked []string
	query := "?limit=2"
	for {
		page := getPage(query)
		if len(page.Jobs) > 2 {
			t.Fatalf("page of %d jobs over limit 2", len(page.Jobs))
		}
		for _, j := range page.Jobs {
			walked = append(walked, j.ID)
		}
		if page.Next == "" {
			break
		}
		query = "?limit=2&after=" + page.Next
	}
	if !reflect.DeepEqual(walked, ids) {
		t.Errorf("paged walk %v, want %v", walked, ids)
	}

	if page := getPage("?state=done"); len(page.Jobs) != 3 {
		t.Errorf("state=done: %d jobs", len(page.Jobs))
	}
	if page := getPage("?state=failed"); len(page.Jobs) != 0 {
		t.Errorf("state=failed: %d jobs", len(page.Jobs))
	}
	for _, bad := range []string{"?limit=0", "?limit=x", "?state=bogus"} {
		status, code, _ := getError(t, ts.URL+"/v1/jobs"+bad)
		if status != http.StatusBadRequest || code != CodeBadRequest {
			t.Errorf("%s: %d %q, want 400 %q", bad, status, code, CodeBadRequest)
		}
	}
}
