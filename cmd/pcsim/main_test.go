package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

// recordGcc records gcc over the given window into a temporary trace
// file and returns its path.
func recordGcc(t *testing.T, warmup, measure int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(program.MustLoad("gcc"), warmup, measure, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReproducesCaptures: every output in testdata/pcsim was captured
// from the separate sweep and pcsim commands this one replaced (the
// .table files from sweep -v, list-kinds.txt from sweep -list-kinds,
// one-cell.txt and timing.txt from pcsim), each with the same
// arguments as here; the unified command must print them byte for
// byte. The trace's path prints as TRACE.
func TestReproducesCaptures(t *testing.T) {
	tracePath := recordGcc(t, 2000, 8000)
	window := []string{"-warmup", "2000", "-measure", "8000"}
	patterns := []string{"-bench", "gcc,unzip", "-p", "gshare,perceptron:16", "-critic", "tagged gshare:8", "-fb", "0,1,8"}
	geometry := []string{"-bench", "gcc,unzip", "-prophet", "gshare(entries=8192,hist=13)", "-critic", "none", "-fb", "0,1"}
	replay := []string{"-trace", tracePath, "-bench", "gcc", "-p", "g*", "-critic", "tagged gshare:8", "-fb", "0,1"}
	cell := []string{"-bench", "gcc", "-prophet", "2Bc-gskew:8", "-critic", "tagged gshare:8", "-fb", "1"}
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"patterns.csv", slices.Concat(patterns, window, []string{"-csv"})},
		{"patterns.diffable", slices.Concat(patterns, window, []string{"-diffable"})},
		{"patterns.table", slices.Concat(patterns, window)},
		{"geometry.csv", slices.Concat(geometry, window, []string{"-csv"})},
		{"geometry.diffable", slices.Concat(geometry, window, []string{"-diffable"})},
		{"geometry.table", slices.Concat(geometry, window)},
		{"trace.csv", slices.Concat(replay, window, []string{"-csv"})},
		{"trace.diffable", slices.Concat(replay, window, []string{"-diffable"})},
		{"trace.table", slices.Concat(replay, window)},
		{"list-kinds.txt", []string{"-list-kinds"}},
		{"one-cell.txt", slices.Concat(cell, window)},
		{"timing.txt", slices.Concat([]string{"-timing"}, cell, []string{"-warmup", "0", "-measure", "8000"})},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pcsim", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(tc.args, &out); err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if got := strings.ReplaceAll(out.String(), tracePath, "TRACE"); got != string(want) {
			t.Errorf("%s: pcsim %q printed\n%s\nwant\n%s", tc.file, tc.args, got, want)
		}
	}
}

// TestRejectsBadWindows: a negative -warmup or a zero -measure fails
// the command, for the functional and the timing model alike, instead
// of running a different window.
func TestRejectsBadWindows(t *testing.T) {
	for _, args := range [][]string{
		{"-timing", "-warmup", "-5000", "-measure", "20000"},
		{"-warmup", "-5000", "-measure", "20000"},
		{"-timing", "-warmup", "20000", "-measure", "0"},
		{"-warmup", "20000", "-measure", "0"},
	} {
		err := run(args, io.Discard)
		if err == nil {
			t.Errorf("pcsim %s: accepted", strings.Join(args, " "))
			continue
		}
		if !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("pcsim %s: error %q does not name the window rule", strings.Join(args, " "), err)
		}
	}
}

// TestRejectsBadLists: unknown workloads, future-bit counts outside
// [0, core.MaxFutureBits], patterns that match nothing and output modes
// that do not combine fail the command with an error naming the rule.
func TestRejectsBadLists(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "nope"}, "unknown benchmark"},
		{[]string{"-bench", "gcc,nope"}, "unknown benchmark"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.trc")}, "no such file"},
		{[]string{"-fb", "-1"}, "invalid syntax"},
		{[]string{"-fb", "4,-2"}, "invalid syntax"},
		{[]string{"-fb", "17", "-critic", "none"}, "maximum of 16"},
		{[]string{"-fb", ""}, "invalid syntax"},
		{[]string{"-p", "nothing*"}, "matches no registered predictor"},
		{[]string{"-p", "gshare:0"}, "not a positive KB count"},
		{[]string{"-timing", "-fb", "0,1"}, "one cell"},
		{[]string{"-timing", "-bench", "gcc,unzip"}, "one cell"},
		{[]string{"-timing", "-diffable"}, "functional runs only"},
		{[]string{"-timing", "-shards", "2"}, "functional runs only"},
		{[]string{"-csv", "-diffable"}, "mutually exclusive"},
	} {
		err := run(slices.Concat(tc.args, []string{"-warmup", "100", "-measure", "100"}), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("pcsim %q: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestParseKindKB: -prophet and -critic go through budget.ParseSpec;
// this pins the spec forms the command accepts and rejects.
func TestParseKindKB(t *testing.T) {
	good := []struct {
		spec string
		kind budget.Kind
		kb   int
	}{
		{"gshare:8", budget.Gshare, 8},
		{"2Bc-gskew:16", budget.Gskew, 16},
		{"tagged gshare:8", budget.TaggedGshare, 8},
		{"filtered perceptron:32", budget.FilteredPerceptron, 32},
		{"gshare:7", budget.Gshare, 7}, // off-table budgets invoke the solver
		{"yags:8", budget.YAGS, 8},     // any registered family works
		{"tournament:4", budget.Tournament, 4},
	}
	for _, g := range good {
		c, err := budget.ParseSpec(g.spec)
		if err != nil {
			t.Errorf("%q: %v", g.spec, err)
			continue
		}
		if c.Kind != g.kind || c.KB != g.kb {
			t.Errorf("%q parsed to %s:%d", g.spec, c.Kind, c.KB)
		}
	}

	bad := []string{
		"",                   // empty
		"gshare",             // no size
		":8",                 // no kind
		"gshare:",            // empty size
		"gshare:x",           // non-numeric size
		"gshare:8:extra",     // trailing junk becomes a bad size
		"bogus:8",            // unknown kind
		"gshare:0",           // budget below the solver's range
		"gshare:-8",          // negative budget
		"gshare(entries=99)", // explicit geometry must be a power of two
		"gshare(bogus=1)",    // unknown parameter
	}
	for _, s := range bad {
		if _, err := budget.ParseSpec(s); err == nil {
			t.Errorf("%q must be rejected", s)
		}
	}
}

// TestParseFutureBits: -fb takes a comma list of unsigned counts; the
// upper bound, core.MaxFutureBits, fails the run with an error naming it.
func TestParseFutureBits(t *testing.T) {
	fbs, err := parseFutureBits(fmt.Sprintf("0,1, 8,%d", core.MaxFutureBits))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fbs, []uint{0, 1, 8, core.MaxFutureBits}) {
		t.Errorf("parsed %v", fbs)
	}
	for _, s := range []string{"", "-1", "4,-2", "4,", "x"} {
		if fbs, err := parseFutureBits(s); err == nil {
			t.Errorf("-fb %q parsed to %v, must be rejected", s, fbs)
		}
	}
	over := fmt.Sprint(core.MaxFutureBits + 1)
	err = run([]string{"-fb", over, "-critic", "none", "-warmup", "100", "-measure", "100"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(core.MaxFutureBits)) {
		t.Errorf("-fb %s: err = %v, want one stating the bound %d", over, err, core.MaxFutureBits)
	}
}

// TestLoadWorkloadErrors: unknown benchmarks and missing trace files are
// errors; a comma list loads each named benchmark.
func TestLoadWorkloadErrors(t *testing.T) {
	if _, _, err := loadWorkload("nope", ""); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, _, err := loadWorkload("all", filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing trace file must error")
	}
	progs, desc, err := loadWorkload("gcc,unzip", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || progs[0].Name != "gcc" || progs[1].Name != "unzip" || !strings.Contains(desc, "2") {
		t.Fatalf("loadWorkload = %d progs, %q", len(progs), desc)
	}
}

// TestRunsGoodWindow: a small positive window runs and reports.
func TestRunsGoodWindow(t *testing.T) {
	for _, args := range [][]string{
		{"-timing", "-warmup", "1000", "-measure", "2000"},
		{"-warmup", "1000", "-measure", "2000"},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("pcsim %s: %v", strings.Join(args, " "), err)
		}
		if !strings.Contains(out.String(), "misp") {
			t.Errorf("pcsim %s: no report in %q", strings.Join(args, " "), out.String())
		}
	}
}

// TestTraceMatchesBench: a trace recorded over the default window
// replays to the report the direct run over the same benchmark prints,
// with no window flags on either side.
func TestTraceMatchesBench(t *testing.T) {
	path := recordGcc(t, sim.DefaultOptions.WarmupBranches, sim.DefaultOptions.MeasureBranches)
	var replay, direct strings.Builder
	if err := run([]string{"-trace", path}, &replay); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "gcc"}, &direct); err != nil {
		t.Fatal(err)
	}
	if replay.String() != direct.String() {
		t.Errorf("pcsim -trace printed\n%s\npcsim -bench gcc printed\n%s", replay.String(), direct.String())
	}
}

// TestTraceWindowRule: a trace recorded with -warmup 0 replays under its
// own window and under the same window spelled out, to the same report,
// and a window past the trace's end fails.
func TestTraceWindowRule(t *testing.T) {
	path := recordGcc(t, 0, 8000)
	var implicit, explicit strings.Builder
	if err := run([]string{"-trace", path}, &implicit); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path, "-warmup", "0", "-measure", "8000"}, &explicit); err != nil {
		t.Fatal(err)
	}
	if implicit.String() != explicit.String() {
		t.Errorf("spelled-out window changed the report:\n%s\nvs\n%s", explicit.String(), implicit.String())
	}
	err := run([]string{"-trace", path, "-measure", "20000"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "8000 recorded events") {
		t.Errorf("a window past the trace's end: err = %v", err)
	}
}
