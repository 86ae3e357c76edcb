package service

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// fastSpec is the standard test job: small windows so a full run takes
// tens of milliseconds, with enough measured branches for several
// checkpoint intervals.
func fastSpec() JobSpec {
	return JobSpec{
		Benches:    []string{"gcc"},
		Prophet:    "2Bc-gskew:8",
		Critic:     "tagged gshare:8",
		FutureBits: 1,
		Warmup:     4_000,
		Measure:    24_000,
	}
}

// directRows computes the rows an uninterrupted run of the spec must
// produce, straight from the sim primitives (RunSegment / Matrix) —
// the reference the service's results and resume guarantee are checked
// against.
func directRows(t *testing.T, spec JobSpec) []ResultRow {
	t.Helper()
	spec = spec.normalized()
	prophet := spec.Specs[0]
	build, err := HybridBuilder(prophet, spec.Critic, spec.FutureBits, spec.Unfiltered)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := cellSpec(prophet, spec.Critic, spec.FutureBits, spec.Unfiltered)
	if err != nil {
		t.Fatal(err)
	}
	var rows []ResultRow
	for _, b := range spec.Benches {
		p, err := program.Load(b)
		if err != nil {
			t.Fatal(err)
		}
		var r sim.Result
		if spec.Shards <= 1 {
			r = sim.RunSegment(p, build(), 0, spec.Warmup, spec.Measure)
		} else {
			rs, err := sim.Matrix([]sim.Builder{build}, []*program.Program{p}, spec.simOptions(), spec.shardOptions())
			if err != nil {
				t.Fatal(err)
			}
			r = rs[0][0]
		}
		// A first (uncached) run's rows carry the spec and the cache cell
		// they were stored under — the provenance contract, pinned here.
		row := rowFromResult(r)
		row.Spec = prophet
		row.CellKey = cellKey(cell, "bench:"+b, spec.windowKey())
		rows = append(rows, row)
	}
	return rows
}

// manyRows computes the rows a job must produce straight from the
// one-pass sim.Matrix, in workload-major order.
func manyRows(t *testing.T, spec JobSpec) []ResultRow {
	t.Helper()
	spec = spec.normalized()
	builds := make([]sim.Builder, len(spec.Specs))
	cells := make([]string, len(spec.Specs))
	for i, ps := range spec.Specs {
		b, err := HybridBuilder(ps, spec.Critic, spec.FutureBits, spec.Unfiltered)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := cellSpec(ps, spec.Critic, spec.FutureBits, spec.Unfiltered)
		if err != nil {
			t.Fatal(err)
		}
		builds[i], cells[i] = b, cell
	}
	var rows []ResultRow
	for _, b := range spec.Benches {
		p, err := program.Load(b)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sim.Matrix(builds, []*program.Program{p}, spec.simOptions(), spec.shardOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, col := range rs {
			row := rowFromResult(col[0])
			row.Spec = spec.Specs[i]
			row.CellKey = cellKey(cells[i], "bench:"+b, spec.windowKey())
			rows = append(rows, row)
		}
	}
	return rows
}

func newTestSched(t *testing.T, dir string, mod func(*Config)) *Scheduler {
	t.Helper()
	cfg := Config{DataDir: dir, CheckpointEvery: 4_000}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls until the job reaches the state or the deadline hits.
func waitState(t *testing.T, s *Scheduler, id, state string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.JobSnapshot(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == state {
			return j
		}
		if j.State == StateFailed && state != StateFailed {
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.JobSnapshot(id)
	t.Fatalf("job %s stuck in %s, want %s", id, j.State, state)
	return Job{}
}

func eventTypes(t *testing.T, s *Scheduler, id string) []string {
	t.Helper()
	log, ok := s.Events(id)
	if !ok {
		t.Fatalf("no event log for %s", id)
	}
	events, _ := log.Snapshot(0)
	types := make([]string, len(events))
	for i, e := range events {
		types[i] = e.Type
	}
	return types
}

// New rejects a setting the server could not run with, instead of
// starting and then wedging (a negative count) or panicking at the first
// lease expiry or worker registration (a lease TTL too short to derive
// positive fleet timings from). 0 keeps meaning "the default".
func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		mod   func(*Config)
	}{
		{"QueueCap", func(c *Config) { c.QueueCap = -1 }},
		{"PerClient", func(c *Config) { c.PerClient = -1 }},
		{"Workers", func(c *Config) { c.Workers = -1 }},
		{"CheckpointEvery", func(c *Config) { c.CheckpointEvery = -1 }},
		{"CrashAfterCheckpoints", func(c *Config) { c.CrashAfterCheckpoints = -1 }},
		{"LeaseTTL", func(c *Config) { c.LeaseTTL = -200 * time.Millisecond }},
		{"LeaseTTL", func(c *Config) { c.LeaseTTL = 9 * time.Millisecond }},
	} {
		cfg := Config{DataDir: t.TempDir()}
		tc.mod(&cfg)
		s, err := New(cfg)
		if err == nil {
			s.Kill()
			t.Errorf("New accepted %+v", cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("New(%s out of range): error %q does not name the field", tc.field, err)
		}
	}
}

// A job run with no interruption must equal the direct sim run exactly,
// and its event stream must be well-formed.
func TestJobMatchesDirectRun(t *testing.T) {
	spec := fastSpec()
	spec.Benches = []string{"gcc", "unzip"}
	want := directRows(t, spec)

	s := newTestSched(t, t.TempDir(), nil)
	s.Start()
	defer s.Kill()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	if !reflect.DeepEqual(done.Rows, want) {
		t.Errorf("service rows = %+v\nwant %+v", done.Rows, want)
	}

	types := eventTypes(t, s, j.ID)
	if types[0] != "queued" || types[1] != "started" || types[len(types)-1] != "done" {
		t.Errorf("event sequence %v", types)
	}
	seenProgress, seenResult := false, false
	for _, ty := range types {
		seenProgress = seenProgress || ty == "progress"
		seenResult = seenResult || ty == "result"
	}
	if !seenProgress || !seenResult {
		t.Errorf("event sequence %v lacks progress/result", types)
	}
	// Sequence numbers are strictly increasing from 1.
	log, _ := s.Events(j.ID)
	events, ended := log.Snapshot(0)
	if !ended {
		t.Error("stream not ended after done")
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
}

// The acceptance criterion: kill the scheduler mid-measurement (crash
// injection fires after exactly two checkpoint writes), restart over the
// same data directory, and the resumed job's metrics must be
// bit-identical to a direct uninterrupted sim.RunSegment run.
func TestCrashRestartResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	want := directRows(t, spec)

	crashed := make(chan struct{})
	s := newTestSched(t, dir, func(c *Config) {
		c.CrashAfterCheckpoints = 2
		// Crash like the process died: stop this worker goroutine on the
		// spot, persisting nothing beyond the checkpoint just written.
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

	// The wreckage a real crash leaves: a running job record plus a
	// checkpoint strictly mid-measurement.
	if _, err := os.Stat(filepath.Join(dir, "ck", "j000000.ck")); err != nil {
		t.Fatalf("no checkpoint on disk: %v", err)
	}

	s2 := newTestSched(t, dir, nil)
	j2, ok := s2.JobSnapshot("j000000")
	if !ok {
		t.Fatal("job lost across restart")
	}
	if !j2.Resumed || j2.State != StateQueued {
		t.Fatalf("recovered job %+v not queued for resume", j2)
	}
	s2.Start()
	defer s2.Kill()
	done := waitState(t, s2, "j000000", StateDone)
	if !reflect.DeepEqual(done.Rows, want) {
		t.Errorf("resumed rows = %+v\nwant %+v", done.Rows, want)
	}
	types := eventTypes(t, s2, "j000000")
	if types[1] != "resumed" {
		t.Errorf("resumed job's events %v", types)
	}
	if m := s2.Metrics(); m.ResumedJobs != 1 {
		t.Errorf("ResumedJobs = %d", m.ResumedJobs)
	}
}

// Same invariant for a sharded job: completed shards are persisted, the
// restart reruns only the missing ones, and the merged rows equal
// sim.Matrix's exactly.
func TestCrashRestartResumeSharded(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	spec.Shards = 6
	want := directRows(t, spec)

	crashed := make(chan struct{})
	s := newTestSched(t, dir, func(c *Config) {
		c.CrashAfterCheckpoints = 2
		c.Crash = func() { close(crashed) }
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
	// Crash fired inside a pool worker; kill the scheduler from outside
	// (in-flight shards complete and persist, the rest never run).
	s.Kill()

	s2 := newTestSched(t, dir, nil)
	s2.Start()
	defer s2.Kill()
	done := waitState(t, s2, "j000000", StateDone)
	if !reflect.DeepEqual(done.Rows, want) {
		t.Errorf("resumed sharded rows = %+v\nwant %+v", done.Rows, want)
	}
}

// Graceful drain checkpoints the running job, leaves it "running" on
// disk, and a new scheduler finishes it with exact results.
func TestDrainMidJobResumes(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	spec.Measure = 120_000 // long enough to drain mid-run
	want := directRows(t, spec)

	s := newTestSched(t, dir, func(c *Config) { c.CheckpointEvery = 2_000 })
	s.Start()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpoint boundary, then drain.
	log, _ := s.Events(j.ID)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if events, _ := log.Snapshot(0); len(events) >= 3 { // queued, started, progress
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress event")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastSpec()); err == nil {
		t.Fatal("draining scheduler accepted a submit")
	}

	s2 := newTestSched(t, dir, nil)
	s2.Start()
	defer s2.Kill()
	done := waitState(t, s2, j.ID, StateDone)
	if !reflect.DeepEqual(done.Rows, want) {
		t.Errorf("drained+resumed rows = %+v\nwant %+v", done.Rows, want)
	}
}

// encodedState is a checkpoint payload written by a function — the test
// stand-in for a snapshot an older build wrote.
type encodedState func(enc *checkpoint.Encoder)

func (f encodedState) Snapshot(enc *checkpoint.Encoder)    { f(enc) }
func (encodedState) Restore(dec *checkpoint.Decoder) error { return nil }

// A "running" job whose checkpoint is in a retired mode must fail the
// mode check on restore and restart its workload clean: the job
// finishes, and its rows equal the one-pass reference. The retired modes
// are the single-spec 1 (stepped partial counters plus the hybrid) and
// 2 (per-shard counters), and the multi-spec 3 (stepped: covered specs,
// partials and hybrids) and 4 (sharded: covered specs, per-window
// counters). Every checkpoint carries poisoned counters, so rows that
// match prove the payload was discarded, not merged.
func TestRetiredCheckpointModesRestartClean(t *testing.T) {
	poison := sim.Result{Branches: 1 << 40, Uops: 1 << 40, FinalMisp: 1 << 30}
	for _, tc := range []struct {
		name   string
		shards int
		state  func(spec JobSpec) (encodedState, uint64)
	}{
		{"mode1-stepped", 0, func(spec JobSpec) (encodedState, uint64) {
			const measured = 8_000
			build, err := HybridBuilder(spec.Specs[0], spec.Critic, spec.FutureBits, spec.Unfiltered)
			if err != nil {
				t.Fatal(err)
			}
			h := build()
			sim.RunSegment(program.MustLoad("gcc"), h, 0, spec.Warmup+measured, 0)
			return func(enc *checkpoint.Encoder) {
				enc.Section("svcjob")
				enc.Uvarint(1) // mode 1: stepped
				enc.Uvarint(0) // workload index
				enc.Uvarint(measured)
				encodeCounters(enc, poison)
				h.Snapshot(enc)
			}, uint64(spec.Warmup + measured)
		}},
		{"mode2-sharded", 4, func(spec JobSpec) (encodedState, uint64) {
			return func(enc *checkpoint.Encoder) {
				enc.Section("svcjob")
				enc.Uvarint(2) // mode 2: sharded
				enc.Uvarint(0) // workload index
				enc.Uvarint(4) // shard windows
				for w := 0; w < 4; w++ {
					enc.Bool(w < 2)
					if w < 2 {
						encodeCounters(enc, poison)
					}
				}
			}, uint64(spec.Warmup + spec.Measure/2)
		}},
		{"mode3-stepped", 0, func(spec JobSpec) (encodedState, uint64) {
			const measured = 8_000
			build, err := HybridBuilder(spec.Specs[0], spec.Critic, spec.FutureBits, spec.Unfiltered)
			if err != nil {
				t.Fatal(err)
			}
			h := build()
			sim.RunSegment(program.MustLoad("gcc"), h, 0, spec.Warmup+measured, 0)
			return func(enc *checkpoint.Encoder) {
				enc.Section("svcjob")
				enc.Uvarint(3) // mode 3: multi-spec stepped
				enc.Uvarint(0) // workload index
				enc.Uvarint(measured)
				enc.Uvarint(1) // covered specs
				enc.Uvarint(0) // spec index
				encodeCounters(enc, poison)
				h.Snapshot(enc)
			}, uint64(spec.Warmup + measured)
		}},
		{"mode4-sharded", 4, func(spec JobSpec) (encodedState, uint64) {
			return func(enc *checkpoint.Encoder) {
				enc.Section("svcjob")
				enc.Uvarint(4) // mode 4: multi-spec sharded
				enc.Uvarint(0) // workload index
				enc.Uvarint(1) // covered specs
				enc.Uvarint(0) // spec index
				enc.Uvarint(4) // shard windows
				for w := 0; w < 4; w++ {
					enc.Bool(w < 2)
					if w < 2 {
						encodeCounters(enc, poison)
					}
				}
			}, uint64(spec.Warmup + spec.Measure/2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := fastSpec()
			spec.Shards = tc.shards
			want := manyRows(t, spec)

			// Admit the job without running it, then leave the wreckage an
			// older build would: a "running" record and its checkpoint.
			s := newTestSched(t, dir, nil)
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Kill()
			j.State = StateRunning
			if err := s.st.saveJob(&j); err != nil {
				t.Fatal(err)
			}
			state, pos := tc.state(j.Spec)
			meta := checkpoint.Meta{Workload: "gcc", Prophet: j.Spec.Specs[0], Critic: j.Spec.Critic,
				FutureBits: j.Spec.FutureBits, Position: pos}
			if err := s.st.writeCheckpoint(j.ID, checkpoint.Append(nil, meta, state)); err != nil {
				t.Fatal(err)
			}

			s2 := newTestSched(t, dir, nil)
			s2.Start()
			defer s2.Kill()
			done := waitState(t, s2, j.ID, StateDone)
			if !reflect.DeepEqual(done.Rows, want) {
				t.Errorf("rows after a retired-mode checkpoint = %+v\nwant %+v", done.Rows, want)
			}
			if m := s2.Metrics(); m.ResumedJobs != 1 || m.Failed != 0 {
				t.Errorf("metrics %+v: want 1 resumed job, 0 failed", m)
			}
		})
	}
}

// Every checkpoint write is a resume point: crash a three-spec job after
// write 1, 2, … up to its total, for one window (stepped) and for three,
// and every resume must yield rows bit-identical to uninterrupted
// single-spec runs.
func TestCheckpointCutPointsResumeBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 3} {
		spec := fastSpec()
		spec.Prophet = ""
		spec.Specs = []string{"2Bc-gskew:8", "gshare:8", "perceptron:4"}
		spec.Shards = shards
		want := directRowsMulti(t, spec)

		// The uninterrupted run counts the job's checkpoint writes.
		s := newTestSched(t, t.TempDir(), nil)
		s.Start()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, StateDone)
		total := int(s.Metrics().CheckpointsWritten)
		s.Kill()
		if total < 2 {
			t.Fatalf("shards=%d: %d checkpoint writes, want several cut points", shards, total)
		}

		for cut := 1; cut <= total; cut++ {
			dir := t.TempDir()
			crashed := make(chan struct{})
			s := newTestSched(t, dir, func(c *Config) {
				c.CrashAfterCheckpoints = cut
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
				t.Fatalf("shards=%d cut=%d: crash injection never fired", shards, cut)
			}
			s.Kill()

			s2 := newTestSched(t, dir, nil)
			s2.Start()
			done := waitState(t, s2, "j000000", StateDone)
			s2.Kill()
			if !reflect.DeepEqual(done.Rows, want) {
				t.Errorf("shards=%d cut=%d/%d: resumed rows = %+v\nwant %+v", shards, cut, total, done.Rows, want)
			}
		}
	}
}

// Completed jobs survive restarts: records reload, and the event stream
// is reseeded with the terminal event.
func TestCompletedJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	spec := fastSpec()
	s := newTestSched(t, dir, nil)
	s.Start()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	s.Kill()

	s2 := newTestSched(t, dir, nil)
	defer s2.Kill()
	j2, ok := s2.JobSnapshot(j.ID)
	if !ok || j2.State != StateDone || !reflect.DeepEqual(j2.Rows, done.Rows) {
		t.Fatalf("reloaded job %+v", j2)
	}
	types := eventTypes(t, s2, j.ID)
	if len(types) != 1 || types[0] != "done" {
		t.Fatalf("reseeded events %v", types)
	}
	// New submissions continue the ID sequence instead of colliding.
	s2.Start()
	nj, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID == j.ID {
		t.Fatalf("ID %s reused", nj.ID)
	}
	waitState(t, s2, nj.ID, StateDone)
}

// writeTrace records gcc's first warmup+measure committed branches as
// dir/gcc.trc.
func writeTrace(t *testing.T, dir string, warmup, measure int) {
	t.Helper()
	recordGcc(t, dir, program.MustLoad("gcc"), warmup, measure)
}

// recordGcc records p's first warmup+measure committed branches as
// dir/gcc.trc, whatever program p is.
func recordGcc(t *testing.T, dir string, p *program.Program, warmup, measure int) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, "gcc.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(p, warmup, measure, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// impostorGcc is another program under gcc's name.
func impostorGcc() *program.Program {
	return program.Generate(program.Spec{Name: "gcc", Seed: 99, Sites: 300, AvgUops: 8})
}

// A job checkpoint resumes only over the bytes it was taken on: crash a
// trace job after two checkpoints, re-record gcc.trc from another
// program named gcc, and the restarted job must restart the workload
// clean — its rows equal a clean run over the new trace, not a mix of
// windows simulated over both.
func TestResumeAfterTraceReRecordedRestartsClean(t *testing.T) {
	dir, traceDir := t.TempDir(), t.TempDir()
	writeTrace(t, traceDir, 4_000, 24_000)
	spec := traceSpec()

	crashed := make(chan struct{})
	s := newTestSched(t, dir, func(c *Config) {
		c.TraceDir = traceDir
		c.CrashAfterCheckpoints = 2
		c.Crash = func() {
			close(crashed)
			runtime.Goexit()
		}
	})
	s.Start()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("crash injection never fired")
	}
	s.Kill()

	recordGcc(t, traceDir, impostorGcc(), 4_000, 24_000)
	ref := newTestSched(t, t.TempDir(), func(c *Config) { c.TraceDir = traceDir })
	ref.Start()
	defer ref.Kill()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, ref, rj.ID, StateDone).Rows

	s2 := newTestSched(t, dir, func(c *Config) { c.TraceDir = traceDir })
	s2.Start()
	defer s2.Kill()
	got := waitState(t, s2, j.ID, StateDone)
	if !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("resumed rows over the re-recorded trace = %+v\nwant a clean run's %+v", got.Rows, want)
	}
}

// traceSpec is fastSpec over dir/gcc.trc instead of the gcc benchmark.
func traceSpec() JobSpec {
	spec := fastSpec()
	spec.Benches = nil
	spec.Traces = []string{"gcc.trc"}
	return spec
}

// shortTraceSpec records a gcc trace of 2,000 + 8,000 events into a new
// trace directory and returns it with a trace job over it whose window
// (4,000 + 24,000) outruns the trace.
func shortTraceSpec(t *testing.T) (traceDir string, spec JobSpec) {
	t.Helper()
	traceDir = t.TempDir()
	writeTrace(t, traceDir, 2_000, 8_000)
	return traceDir, traceSpec()
}

// wantWindowError checks that a failed job's error names the window and
// the trace's event count.
func wantWindowError(t *testing.T, j Job) {
	t.Helper()
	if !strings.Contains(j.Error, "28000") || !strings.Contains(j.Error, "10000") {
		t.Errorf("job error %q does not name the 28000-branch window and the 10000 recorded events", j.Error)
	}
}

// A trace job whose window outruns its trace fails with an error naming
// both counts, instead of running past the trace's end in a pool
// goroutine and taking the server down; the next job then completes.
func TestOversizedTraceJobFails(t *testing.T) {
	traceDir, spec := shortTraceSpec(t)
	s := newTestSched(t, t.TempDir(), func(c *Config) { c.TraceDir = traceDir })
	s.Start()
	defer s.Kill()

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantWindowError(t, waitState(t, s, j.ID, StateFailed))

	next, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone)
}

// A restart over a persisted running job whose window outruns its trace
// fails that job instead of crashing on every start.
func TestRestartFailsOversizedTraceJob(t *testing.T) {
	dir := t.TempDir()
	traceDir, spec := shortTraceSpec(t)
	withTraces := func(c *Config) { c.TraceDir = traceDir }

	// Admit the job without running it, then leave the "running" record
	// a killed server would.
	s := newTestSched(t, dir, withTraces)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	j.State = StateRunning
	if err := s.st.saveJob(&j); err != nil {
		t.Fatal(err)
	}

	s2 := newTestSched(t, dir, withTraces)
	s2.Start()
	defer s2.Kill()
	wantWindowError(t, waitState(t, s2, j.ID, StateFailed))
	if m := s2.Metrics(); m.ResumedJobs != 1 || m.Failed != 1 {
		t.Errorf("metrics %+v: want 1 resumed job, 1 failed", m)
	}
}

// writeDivergingTrace records gcc's first warmup+measure committed
// branches as dir/gcc.trc under gcc's CFG with the entry block's two
// edges swapped. Every event names a CFG block, but the events leave
// the CFG after the first.
func writeDivergingTrace(t *testing.T, dir string, warmup, measure int) {
	t.Helper()
	p := program.MustLoad("gcc")
	cfg := append([]program.Block(nil), p.Blocks()...)
	if cfg[0].TakenTo == cfg[0].NotTakenTo {
		t.Fatal("gcc's entry block has one successor; swapping its edges changes nothing")
	}
	cfg[0].TakenTo, cfg[0].NotTakenTo = cfg[0].NotTakenTo, cfg[0].TakenTo
	f, err := os.Create(filepath.Join(dir, "gcc.trc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, trace.Meta{Name: p.Name, Warmup: warmup, Measure: measure}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := p.NewRun()
	for i := 0; i < warmup+measure; i++ {
		if err := tw.WriteEvent(run.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

// A trace job whose events leave the trace's recorded CFG fails at load,
// naming the edge, instead of diverging mid-replay in a pool goroutine
// and taking the server down; the next job then completes.
func TestDivergingTraceJobFails(t *testing.T) {
	traceDir := t.TempDir()
	writeDivergingTrace(t, traceDir, 4_000, 24_000)
	s := newTestSched(t, t.TempDir(), func(c *Config) { c.TraceDir = traceDir })
	s.Start()
	defer s.Kill()

	j, err := s.Submit(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if failed := waitState(t, s, j.ID, StateFailed); !strings.Contains(failed.Error, "not the CFG successor") {
		t.Errorf("job error %q does not say the trace leaves its CFG", failed.Error)
	}

	next, err := s.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, next.ID, StateDone)
}

// loadWorkload reads a trace once: the program it returns and its
// identity, the SHA-256 of the whole file, come from the same bytes.
func TestLoadWorkloadHashesTheBytesItDecodes(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, 2_000, 8_000)
	p, id, err := loadWorkload(WorkloadRef{Kind: "trace", Name: "gcc.trc"}, dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "gcc.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("trace:%x", sha256.Sum256(data)); id != want {
		t.Errorf("identity %s, want %s", id, want)
	}
	if p.Name != "gcc" || p.TraceEvents() != 10_000 {
		t.Errorf("loaded %s with %d events, want gcc with 10000", p.Name, p.TraceEvents())
	}
	if _, id, err := loadWorkload(WorkloadRef{Kind: "bench", Name: "gcc"}, ""); err != nil || id != "bench:gcc" {
		t.Errorf("bench identity %q (%v), want bench:gcc", id, err)
	}
}
