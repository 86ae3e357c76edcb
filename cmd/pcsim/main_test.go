package main

import (
	"io"
	"strings"
	"testing"
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
