package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prophetcritic/internal/program"
	"prophetcritic/internal/trace"
)

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

// TestTraceWindowRule: a trace recorded with -warmup 0 replays under its
// own window and under the same window spelled out, to the same report,
// and a window past the trace's end fails.
func TestTraceWindowRule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w0.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(program.MustLoad("gcc"), 0, 8000, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
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
	err = run([]string{"-trace", path, "-measure", "20000"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "8000 recorded events") {
		t.Errorf("a window past the trace's end: err = %v", err)
	}
}
