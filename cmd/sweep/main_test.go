package main

import (
	"strings"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/sim"
)

// Spec parsing moved to budget.ParseSpec (shared with cmd/trace and the
// service's job specs); this pins the CLI-facing contract.
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

func TestValidateFutureBits(t *testing.T) {
	if err := validateFutureBits([]int{0, 1, 8, core.MaxFutureBits}); err != nil {
		t.Fatal(err)
	}
	for _, fbs := range [][]int{nil, {-1}, {core.MaxFutureBits + 1}, {4, -2}} {
		if err := validateFutureBits(fbs); err == nil {
			t.Errorf("future bits %v must be rejected", fbs)
		}
	}
	// The error must name the valid range, not just reject.
	err := validateFutureBits([]int{99})
	if err == nil || !strings.Contains(err.Error(), "16") {
		t.Errorf("error should state the bound: %v", err)
	}
}

func TestResolveWorkloadErrors(t *testing.T) {
	if _, _, err := resolveWorkload("nope", ""); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, _, err := resolveWorkload("all", "/does/not/exist.trc"); err == nil {
		t.Fatal("missing trace file must error")
	}
	progs, desc, err := resolveWorkload("gcc,unzip", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || !strings.Contains(desc, "2") {
		t.Fatalf("resolve = %d progs, %q", len(progs), desc)
	}
}

// -shards/-warmup-frac validation is shared with pcsim and experiments
// through sim.ShardOptions.Validate; pin the clean-error contract here
// where the flags are parsed.
func TestValidateShardFlags(t *testing.T) {
	for _, tc := range []struct {
		shards int
		frac   float64
		ok     bool
	}{
		{1, 1, true},
		{4, 0.5, true},
		{0, 1, false},
		{-2, 1, false},
		{1 << 30, 1, false},
		{4, -0.5, false},
		{4, 2, false},
	} {
		err := sim.ShardOptions{Shards: tc.shards, WarmupFrac: tc.frac}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("shards=%d frac=%v: err=%v, want ok=%v", tc.shards, tc.frac, err, tc.ok)
		}
	}
}
