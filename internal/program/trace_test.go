package program

import (
	"io"
	"strings"
	"testing"
)

// source returns a next func over evs, io.EOF after the last, and a
// pointer to the number of calls it has served.
func source(evs []Event) (func() (Event, error), *int) {
	calls := 0
	return func() (Event, error) {
		calls++
		if calls > len(evs) {
			return Event{}, io.EOF
		}
		return evs[calls-1], nil
	}, &calls
}

// ev builds a minimal committed event.
func ev(addr uint64, taken bool, uops int) Event {
	return Event{Addr: addr, Taken: taken, Uops: uops}
}

// A tiny two-branch loop: block A (0x100) taken → itself twice, then
// falls through to B (0x200), which is taken back to A. A's taken/not
// edges and B's taken edge are observed; B's fall-through never is.
func loopEvents() []Event {
	return []Event{
		ev(0x100, true, 4), ev(0x100, true, 4), ev(0x100, false, 4),
		ev(0x200, true, 7),
		ev(0x100, true, 4), ev(0x100, true, 4), ev(0x100, false, 4),
		ev(0x200, true, 7),
		ev(0x100, true, 4),
	}
}

func TestFromTraceInfersCFG(t *testing.T) {
	next, _ := source(loopEvents())
	p, err := FromTrace(TraceInfo{Name: "loop", Warmup: 1, Measure: 8}, next)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsReplay() || p.TraceEvents() != 9 {
		t.Fatalf("replay metadata wrong: replay=%v events=%d", p.IsReplay(), p.TraceEvents())
	}
	if p.Suite != SuiteTrace {
		t.Fatalf("suite = %q, want %q", p.Suite, SuiteTrace)
	}
	if p.NumBlocks() != 2 {
		t.Fatalf("inferred %d blocks, want 2", p.NumBlocks())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("inferred CFG must validate: %v", err)
	}

	// Observed edges walk; the never-observed fall-through of B ends the
	// walk early (ok=false) — the "use the bits available" policy.
	if next, ok := p.Walk(0x100, true); !ok || next != 0x100 {
		t.Fatalf("A/taken walk = %#x,%v", next, ok)
	}
	if next, ok := p.Walk(0x100, false); !ok || next != 0x200 {
		t.Fatalf("A/fall walk = %#x,%v", next, ok)
	}
	if next, ok := p.Walk(0x200, true); !ok || next != 0x100 {
		t.Fatalf("B/taken walk = %#x,%v", next, ok)
	}
	if _, ok := p.Walk(0x200, false); ok {
		t.Fatal("never-observed edge must end the walk early")
	}
	if p.Target(1, false) >= 0 {
		t.Fatal("never-observed edge must have a negative target")
	}
	// Unknown addresses also end the walk.
	if _, ok := p.Walk(0x999, true); ok {
		t.Fatal("unknown address must end the walk")
	}
}

func TestFromTraceReplayServesRecordedOutcomes(t *testing.T) {
	events := loopEvents()
	next, calls := source(events)
	p, err := FromTrace(TraceInfo{Name: "loop"}, next)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != len(events)+1 {
		t.Fatalf("FromTrace called next %d times, want each of %d events and io.EOF once", *calls, len(events))
	}
	run := p.NewRun()
	for i, want := range events {
		if got := run.CurrentAddr(); got != want.Addr {
			t.Fatalf("event %d: at %#x, want %#x", i, got, want.Addr)
		}
		e := run.Next()
		if e.Taken != want.Taken || e.Addr != want.Addr || e.Uops != want.Uops {
			t.Fatalf("event %d: got %+v, want %+v", i, e, want)
		}
	}

	// Kind census reports the synthesized replay models.
	if c := p.KindCensus(); c["replay"] != p.NumBlocks() {
		t.Fatalf("census = %v, want all replay", c)
	}
}

func TestFromTraceExhaustionPanics(t *testing.T) {
	next, _ := source(loopEvents())
	p, err := FromTrace(TraceInfo{Name: "loop"}, next)
	if err != nil {
		t.Fatal(err)
	}
	run := p.NewRun()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("running past the trace must panic with a clear message")
		}
		if !strings.Contains(r.(string), "exhausted") {
			t.Fatalf("panic message unhelpful: %v", r)
		}
	}()
	for i := 0; i < len(loopEvents())+1; i++ {
		run.Next()
	}
}

func TestFromTraceRejectsBadTraces(t *testing.T) {
	// A CFG where 0x100 reaches 0x200 either way, and 0x200 reaches
	// 0x100 when taken and has no fall-through edge.
	cfg := []Block{
		{ID: 0, Uops: 2, Addr: 0x100, TakenTo: 1, NotTakenTo: 1},
		{ID: 1, Uops: 2, Addr: 0x200, TakenTo: 0, NotTakenTo: -1},
	}
	for _, c := range []struct {
		name   string
		info   TraceInfo
		events []Event
		want   string
	}{
		{"no events", TraceInfo{Name: "empty"}, nil, "no events"},
		{"no name", TraceInfo{}, loopEvents(), "no workload name"},
		{"inconsistent successor", TraceInfo{Name: "bad"},
			[]Event{ev(0x100, true, 4), ev(0x200, true, 4), ev(0x100, true, 4), ev(0x300, true, 4)}, "not the CFG successor"},
		{"not at the entry block", TraceInfo{Name: "late", Blocks: cfg},
			[]Event{ev(0x200, true, 2)}, "entry block"},
		{"event outside the recorded CFG", TraceInfo{Name: "stray", Blocks: cfg},
			[]Event{ev(0x100, true, 2), ev(0x500, false, 2)}, "no block in the recorded CFG"},
		// Each event names a CFG block, but 0x100 leads to 0x200, not
		// to itself: replay would leave the recorded path.
		{"event off the recorded CFG's edge", TraceInfo{Name: "leaves", Blocks: cfg},
			[]Event{ev(0x100, true, 2), ev(0x200, true, 2), ev(0x100, true, 2), ev(0x100, true, 2)}, "not the CFG successor of block 0x100"},
		// 0x200 has no fall-through edge in the recorded CFG.
		{"event past a missing recorded edge", TraceInfo{Name: "edgeless", Blocks: cfg},
			[]Event{ev(0x100, true, 2), ev(0x200, false, 2), ev(0x100, true, 2)}, "not the CFG successor of block 0x200"},
	} {
		t.Run(c.name, func(t *testing.T) {
			next, _ := source(c.events)
			_, err := FromTrace(c.info, next)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("FromTrace error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

// Synthetic programs must be wholly untouched by the replay machinery.
func TestSyntheticProgramsUnaffected(t *testing.T) {
	p := MustLoad("gzip")
	if p.IsReplay() || p.TraceEvents() != 0 {
		t.Fatal("synthetic program claims to be a replay")
	}
	if a := p.NewRun().Next(); a.Uops <= 0 {
		t.Fatal("synthetic run broken")
	}
}
