// Package service is the simulation-as-a-service layer: a durable job
// queue with priority scheduling and per-client admission control, a
// scheduler that maps jobs onto the shared worker pool (interval-sharded
// via the sim package where requested), an NDJSON event stream of
// per-interval progress, and checkpoint-backed durability — running jobs
// periodically snapshot their hybrid through internal/checkpoint, so a
// restarted server resumes mid-measurement and produces metrics
// bit-identical to an uninterrupted run.
//
// The scheduler has two consumers: cmd/pcserved (the HTTP server and
// its client modes) and examples/service. The command-line tools and
// the experiment harness use only the package's predictor construction
// (NewHybrid, HybridBuilder).
package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/sim"
)

// PredictorInfo is the discovery record served at GET /v1/predictors:
// one registered predictor family with the parameter schema its
// explicit-geometry specs accept and the Table 3 budgets that resolve
// to pinned (published) configurations.
type PredictorInfo struct {
	Name    string           `json:"name"`
	Aliases []string         `json:"aliases,omitempty"`
	Desc    string           `json:"desc"`
	Critic  bool             `json:"critic"`
	TableKB []int            `json:"table_budgets_kb,omitempty"`
	Params  []registry.Param `json:"params"`
}

// Predictors lists every registered predictor family in registry order
// (Table 3 families first). Any listed name or alias is valid as a job
// spec's prophet, and as its critic ("critic": true families run the
// filtered protocol; the rest critique unfiltered).
func Predictors() []PredictorInfo {
	all := registry.All()
	out := make([]PredictorInfo, 0, len(all))
	for _, d := range all {
		out = append(out, PredictorInfo{
			Name:    d.Name,
			Aliases: d.Aliases,
			Desc:    d.Desc,
			Critic:  d.Critic,
			TableKB: budget.TableBudgets(budget.Kind(d.Name)),
			Params:  d.Params,
		})
	}
	return out
}

// JobSpec is the wire form of one simulation job: N predictor
// configurations × a workload set × simulation options. Zero-valued
// windows take the sim defaults; WarmupFrac nil means exact full-warmup
// replay (1.0), mirroring the CLIs' -warmup-frac default.
type JobSpec struct {
	// Client identifies the submitter for per-client admission control;
	// empty submissions share one anonymous bucket.
	Client string `json:"client,omitempty"`
	// Priority orders the queue: higher runs sooner; equal priorities
	// run FIFO.
	Priority int `json:"priority,omitempty"`

	// Benches names synthetic benchmark workloads: exact names, suite
	// names, or "all". Traces names recorded trace files, resolved
	// relative to the server's trace directory.
	Benches []string `json:"benches,omitempty"`
	Traces  []string `json:"traces,omitempty"`

	// Specs lists the prophet specs evaluated over the workload set, in
	// the budget grammar: "kind:KB" (pinned Table 3 cells at published
	// budgets, solver geometry elsewhere) or "kind(name=value,...)" for
	// explicit geometry; any family listed by GET /v1/predictors works.
	// All specs share Critic/FutureBits/Unfiltered and the simulation
	// window, and are simulated in ONE pass of each workload's committed
	// stream (cells already in the server's result cache are answered
	// without simulating at all). A job's rows come out in workload-major
	// order: every spec's row for workload 0, then workload 1, and so on.
	Specs []string `json:"specs,omitempty"`
	// Spec and Prophet are single-spec compatibility aliases of Specs
	// (Prophet is the original field name). Deprecated: new clients
	// should send "specs"; see EXPERIMENTS.md for the schema note.
	Spec    string `json:"spec,omitempty"`
	Prophet string `json:"prophet,omitempty"`

	// Critic is the (shared) critic spec in the same grammar; "none" or
	// empty runs every prophet alone.
	Critic     string `json:"critic,omitempty"`
	FutureBits uint   `json:"future_bits,omitempty"`
	Unfiltered bool   `json:"unfiltered,omitempty"`

	Warmup     int      `json:"warmup,omitempty"`  // warmup branches (default sim.DefaultOptions)
	Measure    int      `json:"measure,omitempty"` // measured branches (default sim.DefaultOptions)
	Shards     int      `json:"shards,omitempty"`  // intra-workload parallel intervals (default 1)
	WarmupFrac *float64 `json:"warmup_frac,omitempty"`
}

// WorkloadRef is one resolved workload of a job: a synthetic benchmark
// name or a trace file relative to the server's trace directory.
type WorkloadRef struct {
	Kind string `json:"kind"` // "bench" or "trace"
	Name string `json:"name"`
}

// normalized returns the spec with defaults applied and the single-spec
// aliases folded into Specs. Folding and defaulting happen BEFORE any
// cache keying (cellKey works off the normalized spec only), so an
// explicit-default submission and an omitted-field submission land on
// the same cache cell — the canonicalization property
// TestCacheKeyCanonicalizesDefaults pins.
func (js JobSpec) normalized() JobSpec {
	if len(js.Specs) == 0 {
		switch {
		case js.Spec != "":
			js.Specs = []string{js.Spec}
		case js.Prophet != "":
			js.Specs = []string{js.Prophet}
		}
	}
	if js.Warmup == 0 {
		js.Warmup = sim.DefaultOptions.WarmupBranches
	}
	if js.Measure == 0 {
		js.Measure = sim.DefaultOptions.MeasureBranches
	}
	if js.Shards == 0 {
		js.Shards = 1
	}
	if js.WarmupFrac == nil {
		one := 1.0
		js.WarmupFrac = &one
	}
	if js.Critic == "" {
		js.Critic = "none"
	}
	return js
}

func (js JobSpec) simOptions() sim.Options {
	return sim.Options{WarmupBranches: js.Warmup, MeasureBranches: js.Measure}
}

func (js JobSpec) shardOptions() sim.ShardOptions {
	return sim.ShardOptions{Shards: js.Shards, WarmupFrac: *js.WarmupFrac}
}

// resolveWorkloads validates and expands the spec's workload set against
// the benchmark inventory and the server's trace directory. The spec
// must already be normalized.
func (js JobSpec) resolveWorkloads(traceDir string) ([]WorkloadRef, error) {
	var refs []WorkloadRef
	for _, b := range js.Benches {
		names, err := program.Expand(b)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			refs = append(refs, WorkloadRef{Kind: "bench", Name: n})
		}
	}
	for _, tr := range js.Traces {
		if err := validTracePath(tr); err != nil {
			return nil, err
		}
		if _, err := os.Stat(filepath.Join(traceDir, tr)); err != nil {
			return nil, fmt.Errorf("service: trace workload %q: %w", tr, err)
		}
		refs = append(refs, WorkloadRef{Kind: "trace", Name: tr})
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("service: job names no workloads (set benches and/or traces)")
	}
	return refs, nil
}

// validTracePath rejects trace references that escape the server's trace
// directory: absolute paths and any ".." component.
func validTracePath(p string) error {
	if p == "" {
		return fmt.Errorf("service: empty trace path")
	}
	if filepath.IsAbs(p) {
		return fmt.Errorf("service: trace path %q must be relative to the server's trace directory", p)
	}
	for _, part := range strings.Split(filepath.ToSlash(p), "/") {
		if part == ".." {
			return fmt.Errorf("service: trace path %q escapes the trace directory", p)
		}
	}
	return nil
}

// validate checks everything that does not need the trace directory. The
// spec must already be normalized.
func (js JobSpec) validate() error {
	if len(js.Specs) == 0 {
		return fmt.Errorf("service: job names no predictor spec (set specs)")
	}
	// The aliases are accepted only as a stand-in for a one-element
	// Specs; a submission saying both things is ambiguous, not merged.
	if js.Spec != "" && (len(js.Specs) != 1 || js.Specs[0] != js.Spec) {
		return fmt.Errorf("service: set either specs or the single-spec alias spec, not both")
	}
	if js.Prophet != "" && (len(js.Specs) != 1 || js.Specs[0] != js.Prophet) {
		return fmt.Errorf("service: set either specs or the single-spec alias prophet, not both")
	}
	seen := make(map[string]string, len(js.Specs))
	for _, spec := range js.Specs {
		if _, err := HybridBuilder(spec, js.Critic, js.FutureBits, js.Unfiltered); err != nil {
			return err
		}
		cell, err := cellSpec(spec, js.Critic, js.FutureBits, js.Unfiltered)
		if err != nil {
			return err
		}
		if prev, dup := seen[cell]; dup {
			return fmt.Errorf("service: specs %q and %q are the same predictor cell %q", prev, spec, cell)
		}
		seen[cell] = spec
	}
	if js.Warmup < 0 {
		return fmt.Errorf("service: warmup must be >= 0, got %d", js.Warmup)
	}
	if js.Measure <= 0 {
		return fmt.Errorf("service: measure must be positive, got %d", js.Measure)
	}
	if err := js.shardOptions().Validate(); err != nil {
		return err
	}
	return nil
}

// cellSpec returns the canonical predictor-cell identity of one prophet
// spec under the job's shared critic settings: the prophets' and
// critics' budget.Config.String() round-trips (so "gshare:8" and the
// equivalent explicit geometry name the same cell), the filter mode, and
// the future-bit count. Prophet-alone cells exclude the critic knobs —
// future bits and the filter flag are meaningless without a critic and
// must not split cache cells.
func cellSpec(prophetSpec, criticSpec string, fb uint, unfiltered bool) (string, error) {
	pc, err := budget.ParseSpec(prophetSpec)
	if err != nil {
		return "", err
	}
	s := pc.String()
	if criticSpec != "" && criticSpec != "none" {
		cc, err := budget.ParseSpec(criticSpec)
		if err != nil {
			return "", err
		}
		mode := "filtered"
		if unfiltered || !cc.IsCritic() {
			mode = "unfiltered"
		}
		s = fmt.Sprintf("%s + %s %s fb=%d", s, cc.String(), mode, fb)
	}
	return s, nil
}

// windowKey is the canonical simulation-window identity of a normalized
// spec. With WarmupFrac 1 every shard count merges to the bit-identical
// sequential result (the shard-merge property the golden tests pin), so
// the key deliberately excludes the shard geometry; approximate runs
// (WarmupFrac < 1) measure different state and key on it.
func (js JobSpec) windowKey() string {
	if *js.WarmupFrac == 1 {
		return fmt.Sprintf("w%d+m%d", js.Warmup, js.Measure)
	}
	return fmt.Sprintf("w%d+m%d/s%d@%g", js.Warmup, js.Measure, js.Shards, *js.WarmupFrac)
}

// cellKey assembles the content-addressed cache key of one result cell:
// canonical predictor cell × workload identity × canonical window.
func cellKey(cell, workload, window string) string {
	return cell + " | " + workload + " | " + window
}

// NewHybrid assembles a prophet/critic hybrid from resolved budget
// configurations — the single construction path shared by the CLIs, the
// experiment harness, and the job scheduler. Any registered kind can be
// the prophet and any kind the critic: Tagged-capable critic kinds run
// the filtered protocol unless forceUnfiltered, the rest critique every
// branch. critic nil is the prophet alone.
func NewHybrid(prophet budget.Config, critic *budget.Config, fb uint, forceUnfiltered bool) *core.Hybrid {
	p := prophet.Build()
	if critic == nil {
		return core.New(p, nil, core.Config{})
	}
	return core.New(p, critic.Build(), core.Config{
		FutureBits: fb,
		Filtered:   critic.IsCritic() && !forceUnfiltered,
		BORLen:     critic.BORSize(), // 0 defaults to the critic's history length in core.New
	})
}

// HybridBuilder parses and validates prophet/critic specs (the full
// budget grammar: Table 3 cells, solver budgets, explicit geometry)
// once and returns a builder producing fresh hybrids — errors
// (malformed specs, unknown kinds or parameters, out-of-range geometry,
// future bits exceeding the BOR) surface here instead of as panics
// inside a running job. criticSpec "none" or "" is the prophet alone.
func HybridBuilder(prophetSpec, criticSpec string, fb uint, unfiltered bool) (sim.Builder, error) {
	pc, err := budget.ParseSpec(prophetSpec)
	if err != nil {
		return nil, err
	}
	var cc *budget.Config
	if criticSpec != "" && criticSpec != "none" {
		c, err := budget.ParseSpec(criticSpec)
		if err != nil {
			return nil, err
		}
		cc = &c
	}
	if fb > core.MaxFutureBits {
		return nil, fmt.Errorf("service: %d future bits exceeds the maximum of %d", fb, core.MaxFutureBits)
	}
	if cc != nil {
		// BORSize is the BOR reach the built critic will actually have
		// (each family declares it statically, so validation never has
		// to build a predictor; it runs on every submission). Families
		// that read no global history report 0 and take no future bits.
		if borLen := cc.BORSize(); fb > borLen {
			return nil, fmt.Errorf("service: %d future bits exceeds the %s critic's %d-bit BOR", fb, cc.Kind, borLen)
		}
	}
	return func() *core.Hybrid { return NewHybrid(pc, cc, fb, unfiltered) }, nil
}
