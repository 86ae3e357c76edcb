package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// recordToFile records bench over the given window into a temp file and
// returns its path.
func recordToFile(t *testing.T, bench string, warmup, measure int) string {
	t.Helper()
	p := program.MustLoad(bench)
	path := filepath.Join(t.TempDir(), bench+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Record(p, warmup, measure, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func filteredHybrid() *core.Hybrid {
	return core.New(
		budget.MustLookup(budget.Gskew, 8).Build(),
		budget.MustLookup(budget.TaggedGshare, 8).Build(),
		core.Config{FutureBits: 8, Filtered: true, BORLen: 18},
	)
}

// The golden acceptance property: record → FromTrace → sim.Run
// reproduces the direct synthetic run's Result exactly, on two
// benchmarks, including the speculative wrong-path walks (8 future bits
// make the walk leave the committed path on every prophet mispredict).
func TestRoundTripReproducesResultExactly(t *testing.T) {
	const warmup, measure = 5_000, 20_000
	opt := sim.Options{WarmupBranches: warmup, MeasureBranches: measure}
	for _, bench := range []string{"gcc", "unzip"} {
		direct := sim.Run(program.MustLoad(bench), filteredHybrid(), opt)

		path := recordToFile(t, bench, warmup, measure)
		rp, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !rp.IsReplay() {
			t.Fatalf("%s: loaded program is not a replay program", bench)
		}
		if rp.TraceEvents() != warmup+measure {
			t.Fatalf("%s: trace has %d events, want %d", bench, rp.TraceEvents(), warmup+measure)
		}
		if w, m := rp.TraceWindow(); w != warmup || m != measure {
			t.Fatalf("%s: trace window %d+%d, want %d+%d", bench, w, m, warmup, measure)
		}
		replay := sim.Run(rp, filteredHybrid(), opt)
		if direct != replay {
			t.Fatalf("%s: replay diverges from direct run:\ndirect: %+v\nreplay: %+v", bench, direct, replay)
		}
	}
}

// A replay program is self-contained: it survives the removal of its
// file, and repeated and concurrent runs of it agree.
func TestReplayProgramIsReusable(t *testing.T) {
	const warmup, measure = 2_000, 6_000
	path := recordToFile(t, "gzip", warmup, measure)
	rp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	opt := sim.Options{WarmupBranches: warmup, MeasureBranches: measure}
	build := func() *core.Hybrid { return filteredHybrid() }
	m, err := sim.Matrix([]sim.Builder{build}, []*program.Program{rp, rp, rp}, opt, sim.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs := m[0]; rs[0] != rs[1] || rs[1] != rs[2] {
		t.Fatal("concurrent replays of the same trace program diverge")
	}
}

// divergingTrace is a trace whose recorded CFG sends a taken 0x400 to
// 0x410 while its events go from a taken 0x400 to 0x420. Every event
// names a CFG block, but replay would leave the recorded path at the
// second event.
func divergingTrace(t testing.TB) []byte {
	t.Helper()
	cfg := []program.Block{
		{ID: 0, Uops: 3, Addr: 0x400, TakenTo: 1, NotTakenTo: 2},
		{ID: 1, Uops: 2, Addr: 0x410, TakenTo: 0, NotTakenTo: 0},
		{ID: 2, Uops: 4, Addr: 0x420, TakenTo: 0, NotTakenTo: 0},
	}
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Meta{Name: "diverging", Measure: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []program.Event{{Addr: 0x400, Taken: true}, {Addr: 0x420}, {Addr: 0x400}, {Addr: 0x420}} {
		if err := tw.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A trace whose events leave its recorded CFG fails to load; replaying
// it would leave the recorded path mid-run.
func TestLoadRejectsTraceLeavingItsCFG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diverging.trc")
	if err := os.WriteFile(path, divergingTrace(t), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err == nil {
		t.Fatalf("Load accepted a trace that leaves its CFG (%d events)", p.TraceEvents())
	}
	if !strings.Contains(err.Error(), "not the CFG successor of block 0x400") {
		t.Fatalf("Load error %q does not name the edge the trace leaves", err)
	}
}

func TestWriterReaderMetaAndStats(t *testing.T) {
	p := program.MustLoad("facerec")
	var buf bytes.Buffer
	if err := Record(p, 100, 900, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Meta()
	if m.Name != "facerec" || m.Suite != program.SuiteFP00 || m.Seed != p.Seed() {
		t.Fatalf("meta wrong: %+v", m)
	}
	if m.Warmup != 100 || m.Measure != 900 {
		t.Fatalf("window wrong: %+v", m)
	}
	if len(r.CFG()) != p.NumBlocks() {
		t.Fatalf("CFG has %d blocks, want %d", len(r.CFG()), p.NumBlocks())
	}
	if _, ok := r.Stats(); ok {
		t.Fatal("stats must be invalid before EOF")
	}
	n := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 1000 {
		t.Fatalf("read %d events, want 1000", n)
	}
	stats, ok := r.Stats()
	if !ok || stats.Events != 1000 || stats.Blocks != p.NumBlocks() {
		t.Fatalf("stats wrong: %+v (ok=%v)", stats, ok)
	}
}

// The stream must round-trip event for event across chunk boundaries
// (window > chunkEvents) — PC deltas and outcome runs both span chunks.
func TestEventStreamExactAcrossChunks(t *testing.T) {
	p := program.MustLoad("gzip")
	total := 3*chunkEvents + 17
	var buf bytes.Buffer
	if err := Record(p, 0, total, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	run := p.NewRun()
	for i := 0; i < total; i++ {
		want := run.Next()
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after the last event, got %v", err)
	}
}

// A writer without a CFG section declares blocks from the event stream;
// the reconstructed program has observed edges only and the never-
// observed ones end walks early.
func TestNoCFGTraceInference(t *testing.T) {
	p := program.MustLoad("swim")
	const total = 4_000
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Meta{Name: "swim-events", Warmup: 0, Measure: total}, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := p.NewRun()
	events := make([]program.Event, total)
	for i := range events {
		events[i] = run.Next()
		if err := tw.WriteEvent(events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "swim-events.trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Suite != program.SuiteTrace {
		t.Fatalf("suite = %q, want %q for CFG-less traces", rp.Suite, program.SuiteTrace)
	}
	if rp.NumBlocks() > p.NumBlocks() {
		t.Fatalf("inferred %d blocks from %d static branches", rp.NumBlocks(), p.NumBlocks())
	}

	// Replay serves the identical event stream (modulo block renumbering).
	rr := rp.NewRun()
	for i, want := range events {
		got := rr.Next()
		if got.Addr != want.Addr || got.Taken != want.Taken || got.Uops != want.Uops {
			t.Fatalf("replay event %d: got %+v, want %+v", i, got, want)
		}
	}

	// Walk policy: every observed edge walks; at least the last event's
	// unobserved direction exists somewhere — find an unobserved edge and
	// check it ends the walk.
	foundMissing := false
	for _, b := range rp.Blocks() {
		for _, dir := range []bool{true, false} {
			next, ok := rp.Walk(b.Addr, dir)
			target := rp.Target(b.ID, dir)
			if target < 0 {
				foundMissing = true
				if ok {
					t.Fatalf("walk over unobserved edge %#x/%v must end early, got %#x", b.Addr, dir, next)
				}
			} else if !ok {
				t.Fatalf("walk over observed edge %#x/%v failed", b.Addr, dir)
			}
		}
	}
	if !foundMissing {
		t.Log("all edges observed (small CFG); missing-edge policy not exercised here")
	}
}

func TestRejectsCorruptInput(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("bad magic must error")
	}
	var buf bytes.Buffer
	if err := Record(program.MustLoad("art"), 0, 500, &buf); err != nil {
		t.Fatal(err)
	}
	// Wrong version byte.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("unsupported version must error")
	}
	// Truncation mid-stream must surface as an error, not silent EOF.
	trunc := buf.Bytes()[:buf.Len()/2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err == nil {
		for {
			if _, err = r.Next(); err != nil {
				break
			}
		}
	}
	if err == nil || err == io.EOF {
		t.Fatalf("truncated trace must error, got %v", err)
	}
	// Bytes after the gzip stream are not a trace either.
	if _, err := Read(bytes.NewReader(append(buf.Bytes(), "junk"...))); err == nil {
		t.Fatal("trailing bytes must error")
	}
	// The gzip trailer's CRC-32 is checked: its first 4 of 8 bytes.
	crc := append([]byte(nil), buf.Bytes()...)
	crc[len(crc)-8] ^= 0xff
	if _, err := Read(bytes.NewReader(crc)); !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("a bad gzip CRC must fail the read with gzip.ErrChecksum, got %v", err)
	}
}

func TestRecordRejectsBadWindow(t *testing.T) {
	p := program.MustLoad("art")
	var buf bytes.Buffer
	if err := Record(p, -1, 100, &buf); err == nil {
		t.Fatal("negative warmup must error")
	}
	if err := Record(p, 0, 0, &buf); err == nil {
		t.Fatal("zero measure must error")
	}
}

func TestInfo(t *testing.T) {
	path := recordToFile(t, "art", 300, 700)
	meta, stats, hasCFG, err := Info(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Name != "art" || !hasCFG || stats.Events != 1000 {
		t.Fatalf("info wrong: meta=%+v stats=%+v cfg=%v", meta, stats, hasCFG)
	}
	if _, _, _, err := Info(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file must error")
	}
}
