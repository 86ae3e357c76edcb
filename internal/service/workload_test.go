package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// loadWorkload loads ref as a new process would: through an empty memo.
func loadWorkload(ref WorkloadRef, traceDir string) (*program.Program, string, error) {
	return newTraceMemo(traceMemoCap).loadWorkload(ref, traceDir, 0)
}

// traceID is the identity a trace file's current bytes load under.
func traceID(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("trace:%x", sha256.Sum256(data))
}

// copyFile copies src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantMemo checks a memo's counters.
func wantMemo(t *testing.T, m *traceMemo, hits, misses uint64) {
	t.Helper()
	if st := m.stats(); st.hits != hits || st.misses != misses {
		t.Errorf("memo counted %d hits and %d misses, want %d and %d", st.hits, st.misses, hits, misses)
	}
}

// A second job over the same bytes under another file name decodes
// nothing: the memo serves the program the first job decoded, and both
// jobs key their cells by the same identity, so the second is answered
// from the result cache.
func TestTraceMemoSharesOneProgramAcrossNames(t *testing.T) {
	traceDir := t.TempDir()
	writeTrace(t, traceDir, 4_000, 24_000)
	copyFile(t, filepath.Join(traceDir, "gcc.trc"), filepath.Join(traceDir, "copy.trc"))
	s := newTestSched(t, t.TempDir(), func(c *Config) { c.TraceDir = traceDir })
	s.Start()
	defer s.Kill()

	var rows [][]ResultRow
	for _, name := range []string{"gcc.trc", "copy.trc"} {
		spec := traceSpec()
		spec.Traces = []string{name}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, waitState(t, s, j.ID, StateDone).Rows)
	}
	id := traceID(t, filepath.Join(traceDir, "gcc.trc"))
	if key := rows[1][0].CellKey; key != rows[0][0].CellKey || !strings.Contains(key, id) || !rows[1][0].Cached {
		t.Errorf("second job's cell %q (cached %v), want the first job's %q over %s", key, rows[1][0].Cached, rows[0][0].CellKey, id)
	}
	wantMemo(t, s.traces, 1, 1)

	p1, id1, err := s.traces.loadWorkload(WorkloadRef{Kind: "trace", Name: "gcc.trc"}, traceDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, id2, err := s.traces.loadWorkload(WorkloadRef{Kind: "trace", Name: "copy.trc"}, traceDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || id1 != id || id2 != id {
		t.Errorf("loads gave programs %p and %p under %s and %s, want one program under %s", p1, p2, id1, id2, id)
	}
}

// A trace re-recorded in place is other bytes: the memo misses, and the
// next job keys its cells by the new hash instead of answering from the
// old trace's cells.
func TestTraceMemoMissesReRecordedTrace(t *testing.T) {
	traceDir := t.TempDir()
	writeTrace(t, traceDir, 4_000, 24_000)
	oldID := traceID(t, filepath.Join(traceDir, "gcc.trc"))
	s := newTestSched(t, t.TempDir(), func(c *Config) { c.TraceDir = traceDir })
	s.Start()
	defer s.Kill()

	j, err := s.Submit(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if row := waitState(t, s, j.ID, StateDone).Rows[0]; !strings.Contains(row.CellKey, oldID) {
		t.Fatalf("first job's cell %q is not over %s", row.CellKey, oldID)
	}

	recordGcc(t, traceDir, impostorGcc(), 4_000, 24_000)
	newID := traceID(t, filepath.Join(traceDir, "gcc.trc"))
	j, err = s.Submit(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	row := waitState(t, s, j.ID, StateDone).Rows[0]
	if !strings.Contains(row.CellKey, newID) || row.Cached {
		t.Errorf("job over the re-recorded trace has cell %q (cached %v), want a fresh cell over %s", row.CellKey, row.Cached, newID)
	}
	wantMemo(t, s.traces, 0, 2)
}

// A trace that fails to decode is not kept: once the file is fixed, the
// next load decodes it.
func TestTraceMemoSkipsCorruptTrace(t *testing.T) {
	traceDir := t.TempDir()
	path := filepath.Join(traceDir, "gcc.trc")
	writeTrace(t, traceDir, 2_000, 8_000)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTraceMemo(traceMemoCap)
	ref := WorkloadRef{Kind: "trace", Name: "gcc.trc"}
	if _, _, err := m.loadWorkload(ref, traceDir, 0); err == nil {
		t.Fatal("a truncated trace loaded")
	}
	if st := m.stats(); st.bytes != 0 || m.lru.Len() != 0 {
		t.Errorf("memo kept %d programs (%d bytes) after a failed decode", m.lru.Len(), st.bytes)
	}

	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	p, id, err := m.loadWorkload(ref, traceDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id != traceID(t, path) || p.TraceEvents() != 10_000 {
		t.Errorf("fixed trace loaded %d events under %s", p.TraceEvents(), id)
	}
	wantMemo(t, m, 0, 2)
}

// Past its limit the memo evicts the least recently used program, and a
// program larger than the limit is used but never kept.
func TestTraceMemoEvictsLeastRecentlyUsed(t *testing.T) {
	dirs := make([]string, 3) // a, b, c: gcc traces of three lengths
	sizes := make([]int, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
		writeTrace(t, dirs[i], 2_000, 8_000+1_000*i)
		p, _, err := loadWorkload(WorkloadRef{Kind: "trace", Name: "gcc.trc"}, dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = p.DecodedBytes()
	}
	ref := WorkloadRef{Kind: "trace", Name: "gcc.trc"}
	load := func(m *traceMemo, i int) *program.Program {
		t.Helper()
		p, _, err := m.loadWorkload(ref, dirs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Room for any two of the three programs, not for all three.
	m := newTraceMemo(sizes[0] + sizes[1] + sizes[2] - 1)
	a := load(m, 0)
	load(m, 1)
	if load(m, 0) != a { // a is now more recent than b
		t.Error("a second load of a decoded it again")
	}
	load(m, 2) // evicts b
	wantMemo(t, m, 1, 3)
	if st := m.stats(); st.bytes != sizes[0]+sizes[2] {
		t.Errorf("memo holds %d bytes, want a's and c's %d", st.bytes, sizes[0]+sizes[2])
	}
	load(m, 0)
	wantMemo(t, m, 2, 3)
	load(m, 1)
	wantMemo(t, m, 2, 4)

	small := newTraceMemo(sizes[0] - 1)
	if load(small, 0) == load(small, 0) {
		t.Error("a program over the limit was kept")
	}
	wantMemo(t, small, 0, 2)
	if st := small.stats(); st.bytes != 0 {
		t.Errorf("memo over its limit holds %d bytes", st.bytes)
	}
}

// Two jobs running at once over one trace share its program (replay is
// stateless) and each produce exactly the rows of a direct run of the
// recorded benchmark. Run under -race.
func TestConcurrentTraceJobsShareOneProgram(t *testing.T) {
	traceDir := t.TempDir()
	writeTrace(t, traceDir, 4_000, 24_000)
	id := traceID(t, filepath.Join(traceDir, "gcc.trc"))
	s := newTestSched(t, t.TempDir(), func(c *Config) {
		c.TraceDir = traceDir
		c.Workers = 2
	})
	s.Start()
	defer s.Kill()

	// Both jobs are queued before either is waited on, so the
	// scheduler's two workers run them at once.
	specs := [][]string{{"2Bc-gskew:8", "gshare:8"}, {"perceptron:4", "gshare:4"}}
	var ids []string
	for _, ps := range specs {
		spec := traceSpec()
		spec.Prophet = ""
		spec.Specs = ps
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	for i, ps := range specs {
		spec := fastSpec()
		spec.Prophet = ""
		spec.Specs = ps
		want := directRowsMulti(t, spec)
		for k := range want {
			want[k].CellKey = strings.Replace(want[k].CellKey, "bench:gcc", id, 1)
		}
		if got := waitState(t, s, ids[i], StateDone).Rows; !reflect.DeepEqual(got, want) {
			t.Errorf("job %d rows = %+v\nwant %+v", i, got, want)
		}
	}
	if st := s.traces.stats(); st.hits+st.misses != 2 || st.misses == 0 {
		t.Errorf("memo counted %d hits and %d misses over two loads", st.hits, st.misses)
	}
}

// A lease is outside input: a trace name that leaves the worker's trace
// directory fails the unit before the file is read, even when the file
// it names is a valid trace with the lease's identity.
func TestLeaseTraceOutsideTraceDirFails(t *testing.T) {
	root := t.TempDir()
	traceDir := filepath.Join(root, "traces")
	if err := os.Mkdir(traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTrace(t, root, 2_000, 8_000)
	outside := filepath.Join(root, "gcc.trc")
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://127.0.0.1:1",
		Client:      NewAPIClient("http://127.0.0.1:1", time.Second, 0),
		TraceDir:    traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../gcc.trc", outside} {
		lease := &UnitLease{
			Unit:       "j000000.0.0",
			Workload:   WorkloadRef{Kind: "trace", Name: name},
			WorkloadID: traceID(t, outside),
			Specs:      []string{"2Bc-gskew:8"},
			Critic:     "tagged gshare:8",
			FutureBits: 1,
			Train:      2_000,
			Measure:    8_000,
		}
		err := w.execute(context.Background(), lease, false)
		if err == nil || !strings.Contains(err.Error(), "trace path") {
			t.Errorf("lease over %q: err %v, want a trace path error", name, err)
		}
	}
	wantMemo(t, w.traces, 0, 0)
}

// The memo keeps a benchmark's committed stream in replay form through
// the longest window end asked of it. A second job with a longer window
// rebuilds the entry longer instead of replaying past its end; both
// jobs' rows are byte-identical to a direct sim.RunMany, and the memo
// counters count the bench loads.
func TestTraceMemoRebuildsBenchForLongerWindow(t *testing.T) {
	s := newTestSched(t, t.TempDir(), nil)
	s.Start()
	defer s.Kill()

	gcc, err := program.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for i, measure := range []int{8_000, 24_000} {
		spec := fastSpec()
		spec.Prophet = ""
		spec.Specs = []string{"2Bc-gskew:8", "perceptron:4"}
		spec.Measure = measure
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, s, j.ID, StateDone).Rows
		spec = spec.normalized()
		builds := make([]sim.Builder, len(spec.Specs))
		for k, ps := range spec.Specs {
			if builds[k], err = HybridBuilder(ps, spec.Critic, spec.FutureBits, spec.Unfiltered); err != nil {
				t.Fatal(err)
			}
		}
		for k, r := range sim.RunMany(gcc, builds, spec.simOptions()) {
			want, err := json.Marshal(rowFromResult(r))
			if err != nil {
				t.Fatal(err)
			}
			row := got[k]
			row.Spec, row.CellKey = "", ""
			if b, err := json.Marshal(row); err != nil || !bytes.Equal(b, want) {
				t.Errorf("job %d row %d = %s, want %s", i, k, b, want)
			}
		}

		p := s.traces.get("bench:gcc", 0)
		if p == nil || p.TraceEvents() != uint64(spec.Warmup+measure) {
			t.Fatalf("after job %d the memo keeps %v, want gcc materialized through %d", i, p, spec.Warmup+measure)
		}
		if st, bitmap := s.traces.stats(), (spec.Warmup+measure+63)/64*8; st.bytes != bitmap {
			t.Errorf("after job %d the memo counts %d bytes, want the rebuilt program's bitmap %d", i, st.bytes, bitmap)
		}
	}
	// Each job missed once (the second wanted more than was kept); the
	// two lookups above hit.
	wantMemo(t, s.traces, 2, 2)
}

// A stream too long to keep is not materialized: the load returns the
// synthetic program, whose Runs generate their own streams.
func TestTraceMemoLeavesOversizedBenchSynthetic(t *testing.T) {
	gcc, err := program.Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	m := newTraceMemo(1_000) // an 8,000-branch bitmap
	ref := WorkloadRef{Kind: "bench", Name: "gcc"}
	if p, _, err := m.loadWorkload(ref, "", 8_000); err != nil || p.TraceEvents() != 8_000 {
		t.Fatalf("an 8,000-branch window loaded %d branches (%v), want a materialized program", p.TraceEvents(), err)
	}
	if p, _, err := m.loadWorkload(ref, "", 9_000); err != nil || p != gcc {
		t.Errorf("a 9,000-branch window loaded %p (%v), want the synthetic program %p", p, err, gcc)
	}
	if p := m.get("bench:gcc", 0); p == nil || p.TraceEvents() != 8_000 {
		t.Errorf("the memo lost its 8,000-branch program to an oversized load")
	}
}

// Loads of one bench with different windows, at once, each get a
// program reaching their window, and the memo ends up keeping the
// longest. Run under -race.
func TestTraceMemoConcurrentBenchLoads(t *testing.T) {
	m := newTraceMemo(traceMemoCap)
	ref := WorkloadRef{Kind: "bench", Name: "gcc"}
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(need int) {
			defer wg.Done()
			p, _, err := m.loadWorkload(ref, "", need)
			if err != nil || p.TraceEvents() < uint64(need) {
				t.Errorf("a %d-branch load gave %v branches (%v)", need, p, err)
			}
		}(i * 1_000)
	}
	wg.Wait()
	if p := m.get("bench:gcc", 0); p == nil || p.TraceEvents() != 8_000 {
		t.Errorf("the memo keeps %v, want gcc through 8,000 branches", p)
	}
	if st := m.stats(); m.lru.Len() != 1 || st.bytes != 8_000/8 {
		t.Errorf("the memo holds %d programs in %d bytes, want one", m.lru.Len(), st.bytes)
	}
}
