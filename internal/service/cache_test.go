package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// getJSON GETs url and decodes the 200 response into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// directRowsMulti computes the rows a multi-spec job must produce:
// workload-major order, each cell straight from the single-spec sim
// reference.
func directRowsMulti(t *testing.T, spec JobSpec) []ResultRow {
	t.Helper()
	spec = spec.normalized()
	var rows []ResultRow
	for _, b := range spec.Benches {
		for _, ps := range spec.Specs {
			one := spec
			one.Specs = []string{ps}
			one.Spec, one.Prophet = "", ""
			one.Benches = []string{b}
			rows = append(rows, directRows(t, one)...)
		}
	}
	return rows
}

// uncached strips the hit-provenance fields so a served row can be
// compared against the row its cache cell stored.
func uncached(r ResultRow) ResultRow {
	r.Cached = false
	r.SourceJob = ""
	return r
}

// Resubmitting an identical job is answered from the result cache: the
// rows carry hit provenance (cached flag, cell key, source job) around
// counters bit-identical to the first run, the hit/miss/stored counters
// surface on /metricsz, GET /v1/results serves the cells, and the cache
// — being plain files under the data directory — survives a restart.
func TestCacheHitProvenanceAndResultsEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, nil)

	resp, body := submitHTTP(t, ts, specJSON(t, fastSpec()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	id1 := fmt.Sprint(body["id"])
	j1 := waitState(t, s, id1, StateDone)
	if len(j1.Rows) != 1 || j1.Rows[0].Cached || j1.Rows[0].SourceJob != "" || j1.Rows[0].CellKey == "" {
		t.Fatalf("first run rows %+v: want one uncached row with a cell key", j1.Rows)
	}

	resp, body = submitHTTP(t, ts, specJSON(t, fastSpec()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	id2 := fmt.Sprint(body["id"])
	j2 := waitState(t, s, id2, StateDone)
	if len(j2.Rows) != 1 {
		t.Fatalf("second run rows %+v", j2.Rows)
	}
	hit := j2.Rows[0]
	if !hit.Cached || hit.SourceJob != id1 || hit.CellKey != j1.Rows[0].CellKey {
		t.Fatalf("hit row %+v: want cached=true source=%s cell %q", hit, id1, j1.Rows[0].CellKey)
	}
	if got := uncached(hit); got != j1.Rows[0] {
		t.Errorf("hit counters %+v differ from first run %+v", got, j1.Rows[0])
	}

	m := registryValues(t, s, "pcserved_cache_hits_total", "pcserved_cache_misses_total",
		"pcserved_cache_stores_total", "pcserved_cache_entries", "pcserved_cache_bytes")
	if hits, misses, stores, entries, bytes := m[0], m[1], m[2], m[3], m[4]; hits != 1 || misses != 1 || stores != 1 || entries != 1 || bytes <= 0 {
		t.Errorf("cache metrics: %v hits, %v misses, %v stores, %v entries, %v bytes; want 1 hit, 1 miss, 1 store, 1 entry, some bytes",
			hits, misses, stores, entries, bytes)
	}
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, line := range []string{"pcserved_cache_hits_total 1", "pcserved_cache_misses_total 1", "pcserved_cache_entries 1"} {
		if !strings.Contains(string(mbody), line) {
			t.Errorf("/metricsz lacks %q", line)
		}
	}

	// The results endpoint serves the cell, filtered by prophet spec
	// (matching prophet-alone queries against hybrid cells) and by
	// workload; unknown filters return empty lists, not errors.
	for _, q := range []string{"", "?spec=2Bc-gskew:8", "?workload=gcc", "?spec=2Bc-gskew:8&workload=gcc"} {
		var list ResultList
		getJSON(t, ts.URL+"/v1/results"+q, &list)
		if len(list.Results) != 1 {
			t.Fatalf("results%s: %d entries, want 1", q, len(list.Results))
		}
		e := list.Results[0]
		if e.Job != id1 || e.Key != j1.Rows[0].CellKey || e.Row != j1.Rows[0] {
			t.Errorf("results%s entry %+v: want job %s cell %q", q, e, id1, j1.Rows[0].CellKey)
		}
	}
	for _, q := range []string{"?spec=gshare:8", "?workload=unzip"} {
		var list ResultList
		getJSON(t, ts.URL+"/v1/results"+q, &list)
		if len(list.Results) != 0 {
			t.Errorf("results%s: %d entries, want 0", q, len(list.Results))
		}
	}

	// The cache is content-addressed files under the data dir; a fresh
	// scheduler over the same dir reloads it and answers without
	// simulating.
	files, err := filepath.Glob(filepath.Join(dir, "cache", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir: %v %v, want one entry file", files, err)
	}
	ts.Close()
	s.Kill()

	s2 := newTestSched(t, dir, nil)
	s2.Start()
	defer s2.Kill()
	if n := registryValues(t, s2, "pcserved_cache_entries")[0]; n != 1 {
		t.Fatalf("reloaded cache has %v entries", n)
	}
	j3, err := s2.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s2, j3.ID, StateDone)
	if !done.Rows[0].Cached || done.Rows[0].SourceJob != id1 {
		t.Errorf("post-restart row %+v: want hit sourced from %s", done.Rows[0], id1)
	}
	if got := uncached(done.Rows[0]); got != j1.Rows[0] {
		t.Errorf("post-restart counters %+v differ from first run %+v", got, j1.Rows[0])
	}
}

// Cache keys are computed from the NORMALIZED spec, so a submission
// spelling out the defaults (specs list, shards=1, warmup_frac=1)
// lands on the same cell as one omitting them — and, at full warmup,
// so does a sharded run of the same window, because shard merge is
// bit-identical. This test would have caught keying the raw spec.
func TestCacheKeyCanonicalizesDefaults(t *testing.T) {
	s := newTestSched(t, t.TempDir(), nil)
	s.Start()
	defer s.Kill()

	run := func(spec JobSpec) Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return waitState(t, s, j.ID, StateDone)
	}

	// Omitted fields: the deprecated prophet alias, no shards, no frac.
	first := run(fastSpec())

	// Everything the first submission left implicit, spelled out.
	one := 1.0
	explicit := fastSpec()
	explicit.Prophet = ""
	explicit.Specs = []string{"2Bc-gskew:8"}
	explicit.Shards = 1
	explicit.WarmupFrac = &one

	// Same exact window sharded 4 ways: merge is bit-identical at full
	// warmup, so the window key ignores shard geometry.
	sharded := fastSpec()
	sharded.Shards = 4

	for name, spec := range map[string]JobSpec{"explicit defaults": explicit, "sharded exact": sharded} {
		done := run(spec)
		row := done.Rows[0]
		if !row.Cached || row.SourceJob != first.ID || row.CellKey != first.Rows[0].CellKey {
			t.Errorf("%s: row %+v: want hit on cell %q from %s", name, row, first.Rows[0].CellKey, first.ID)
		}
	}
	m := registryValues(t, s, "pcserved_cache_hits_total", "pcserved_cache_misses_total", "pcserved_cache_entries")
	if hits, misses, entries := m[0], m[1], m[2]; hits != 2 || misses != 1 || entries != 1 {
		t.Errorf("cache metrics: %v hits, %v misses, %v entries; want 2 hits, 1 miss, 1 entry", hits, misses, entries)
	}
}

// A multi-spec job's rows come out workload-major and each cell is
// bit-identical to the single-spec reference run; specs already in the
// cache are served as hits while only the misses simulate.
func TestMultiSpecJob(t *testing.T) {
	spec := fastSpec()
	spec.Prophet = ""
	spec.Specs = []string{"2Bc-gskew:8", "gshare:8", "perceptron:4"}
	spec.Benches = []string{"gcc", "unzip"}
	want := directRowsMulti(t, spec)

	s := newTestSched(t, t.TempDir(), nil)
	s.Start()
	defer s.Kill()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(done.Rows, want) {
		t.Errorf("multi-spec rows = %+v\nwant %+v", done.Rows, want)
	}

	// A later job overlapping one cell simulates only the new spec.
	partial := fastSpec()
	partial.Prophet = ""
	partial.Specs = []string{"gshare:8", "local:8"}
	j2, err := s.Submit(partial)
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitState(t, s, j2.ID, StateDone)
	if len(done2.Rows) != 2 {
		t.Fatalf("partial job rows %+v", done2.Rows)
	}
	hit, miss := done2.Rows[0], done2.Rows[1]
	if !hit.Cached || hit.SourceJob != j.ID {
		t.Errorf("overlapping cell %+v: want hit sourced from %s", hit, j.ID)
	}
	// gcc × gshare:8 is row 1 of the first job (workload-major).
	if got := uncached(hit); got != want[1] {
		t.Errorf("hit counters %+v differ from first job's %+v", got, want[1])
	}
	if miss.Cached || miss.Spec != "local:8" || miss.CellKey == "" {
		t.Errorf("fresh cell %+v: want an uncached local:8 row", miss)
	}
}

// The resume guarantee extends to the multi-spec checkpoint formats:
// crash a job with several concurrent cache misses mid-measurement
// (stepped) or mid-window (sharded), restart over the same directory,
// and the rows must still be bit-identical to uninterrupted single-spec
// runs.
func TestMultiSpecCrashResumeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"stepped", 0}, {"sharded", 6}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := fastSpec()
			spec.Prophet = ""
			spec.Specs = []string{"2Bc-gskew:8", "gshare:8", "perceptron:4"}
			spec.Shards = tc.shards
			want := directRowsMulti(t, spec)

			crashed := make(chan struct{})
			s := newTestSched(t, dir, func(c *Config) {
				c.CrashAfterCheckpoints = 2
				c.Crash = func() {
					close(crashed)
					runtime.Goexit()
				}
			})
			s.Start()
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
			select {
			case <-crashed:
			case <-time.After(30 * time.Second):
				t.Fatal("crash injection never fired")
			}
			s.Kill()

			if _, err := os.Stat(filepath.Join(dir, "ck", "j000000.ck")); err != nil {
				t.Fatalf("no checkpoint on disk: %v", err)
			}

			s2 := newTestSched(t, dir, nil)
			s2.Start()
			defer s2.Kill()
			done := waitState(t, s2, "j000000", StateDone)
			if !reflect.DeepEqual(done.Rows, want) {
				t.Errorf("resumed rows = %+v\nwant %+v", done.Rows, want)
			}
			if n := registryValues(t, s2, "pcserved_jobs_resumed_total")[0]; n != 1 {
				t.Errorf("pcserved_jobs_resumed_total = %v", n)
			}
		})
	}
}
