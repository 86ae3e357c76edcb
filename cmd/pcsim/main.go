// Command pcsim runs branch-prediction simulations, functional or
// timing, over prophet/critic hybrids:
//
//	pcsim -bench gcc -prophet "2Bc-gskew:8" -critic "tagged gshare:8" -fb 1
//	pcsim -bench tpcc -prophet "perceptron:16" -critic none
//	pcsim -bench gcc -timing -fb 1
//	pcsim -trace gcc.trc -fb 1                    # replay a recorded trace
//	pcsim -bench gcc,unzip -fb 0,1,4,8,12         # lists make a matrix
//	pcsim -prophet "gshare(entries=8192,hist=13)" -critic none   # explicit geometry
//	pcsim -bench all -p 'g*' -critic none         # every family matching a glob
//	pcsim -bench all -p '*:16' -fb 1 -csv         # all families at 16KB, CSV rows
//	pcsim -p 'perceptron,yags' -fb 0,1 -diffable  # stable line-per-cell output
//	pcsim -list-kinds                             # registry + param schemas
//	pcsim -trace gcc.trc -shards 8 -warmup-frac 0.25   # sharded, approximate
//
// A cell is one prophet at one future-bit count on one benchmark. One
// cell prints a detailed report. More cells print a table: one row per
// (prophet, fb, benchmark) with prophet and final mispredict rates,
// misp/Kuops and the critique distribution, then a POOLED row and the
// mean misp/Kuops over the benchmarks for each (prophet, fb). -csv and
// -diffable print machine-readable rows for any number of cells, for
// piping into cut/join or diffing two runs. -timing runs the cycle
// timing model over one cell.
//
// -bench and -fb take comma lists; -bench accepts suite names and
// 'all'. -p selects sets of prophets: a comma-separated list of
// case-insensitive glob patterns matched against every registered
// family name and alias, each with an optional :KB budget suffix
// (default 8). Predictor specs accept the full budget grammar: Table 3
// cells resolve to the published geometry, off-table budgets invoke the
// family's solver, and kind(name=value,...) sets explicit geometry.
// Every cell of a run is evaluated in one pass of each workload's
// committed stream (sim.Matrix), with results bit-identical to running
// each alone.
//
// With -trace, the workload is a recorded branch trace, replayed over
// the window it was recorded with unless -warmup or -measure is given;
// a trace recorded with the default window replays to exactly the
// report the direct run produces. With -shards K, each workload's
// measurement window is split into K intervals simulated in parallel;
// at the default -warmup-frac 1 the results are bit-identical to the
// sequential run's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fatal(err)
	}
}

// errUsage reports a command line the flag set rejected and already
// printed usage for.
var errUsage = errors.New("pcsim: bad command line")

// cell is one (prophet, future-bit count) configuration; it runs on
// every program of the workload.
type cell struct {
	spec string
	fb   uint
}

// run parses args as pcsim's command line and writes the output to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pcsim", flag.ContinueOnError)
	var (
		bench       = fs.String("bench", "gcc", "comma-separated benchmark names, suite names, or 'all' (see -benchmarks)")
		traceFlag   = fs.String("trace", "", "replay a recorded trace file as the workload (overrides -bench)")
		prophetFlag = fs.String("prophet", "2Bc-gskew:8", "prophet spec: kind:KB or kind(name=value,...); see -list-kinds")
		patterns    = fs.String("p", "", "comma-separated prophet glob patterns with optional :KB suffix (e.g. 'g*,perceptron:16'); overrides -prophet")
		criticFlag  = fs.String("critic", "tagged gshare:8", "critic spec (same grammar as -prophet), or 'none'")
		fbFlag      = fs.String("fb", "1", "comma-separated future bit counts")
		unfiltered  = fs.Bool("unfiltered", false, "critique every branch (no tag filter)")
		timing      = fs.Bool("timing", false, "run the cycle timing model (uPC) over one cell instead of the functional simulator")
		warmup      = fs.Int("warmup", sim.DefaultOptions.WarmupBranches, "warmup branches")
		measure     = fs.Int("measure", sim.DefaultOptions.MeasureBranches, "measured branches")
		shards      = fs.Int("shards", 1, "split each workload's measurement window into K parallel intervals (functional runs only)")
		warmupFrac  = fs.Float64("warmup-frac", 1, "fraction of each shard's prefix replayed as warmup (1 = exact)")
		csvFlag     = fs.Bool("csv", false, "emit CSV rows instead of the report or table")
		diffable    = fs.Bool("diffable", false, "emit stable key=value lines instead of the report or table")
		listBench   = fs.Bool("benchmarks", false, "list benchmarks and exit")
		listKinds   = fs.Bool("list-kinds", false, "list every registered predictor family with its parameter schema and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	switch {
	case *listBench:
		suites := program.Suites()
		for _, suite := range slices.Sorted(maps.Keys(suites)) {
			fmt.Fprintf(w, "%-6s %v\n", suite, suites[suite])
		}
		return nil
	case *listKinds:
		printKinds(w)
		return nil
	case *csvFlag && *diffable:
		return fmt.Errorf("-csv and -diffable are mutually exclusive")
	}
	rows := *csvFlag || *diffable

	progs, workload, err := loadWorkload(*bench, *traceFlag)
	if err != nil {
		return err
	}
	if *traceFlag != "" {
		// Unless overridden on the command line, replay the window the
		// trace was recorded with — that reproduces the recorded run's
		// result bit for bit.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		tw, tm := progs[0].TraceWindow()
		if !set["warmup"] {
			*warmup = tw
		}
		if !set["measure"] {
			*measure = tm
		}
	}
	for _, p := range progs {
		if err := sim.ValidateWindow(p, *warmup, *measure); err != nil {
			return err
		}
	}
	so := sim.ShardOptions{Shards: *shards, WarmupFrac: *warmupFrac}
	if err := so.Validate(); err != nil {
		return err
	}

	prophets := []string{*prophetFlag}
	if *patterns != "" {
		if prophets, err = matchPredictors(*patterns); err != nil {
			return err
		}
	}
	fbs, err := parseFutureBits(*fbFlag)
	if err != nil {
		return err
	}
	// Every cell is validated up front through the shared construction
	// path: a malformed spec or a count exceeding the critic's BOR fails
	// before any simulation runs.
	var cells []cell
	var builders []sim.Builder
	for _, spec := range prophets {
		for _, fb := range fbs {
			b, err := service.HybridBuilder(spec, *criticFlag, fb, *unfiltered)
			if err != nil {
				return err
			}
			cells = append(cells, cell{spec, fb})
			builders = append(builders, b)
		}
	}
	one := len(cells)*len(progs) == 1
	if *timing {
		switch {
		case so.Shards > 1:
			return fmt.Errorf("-shards applies to functional runs only; the timing model is inherently sequential")
		case rows:
			return fmt.Errorf("-timing prints a one-cell report; -csv and -diffable apply to functional runs only")
		case !one:
			return fmt.Errorf("-timing runs one cell (one prophet, one -fb, one benchmark), not %d", len(cells)*len(progs))
		}
	}

	if one && !rows {
		h := builders[0]()
		fmt.Fprintln(w, "workload: ", progs[0])
		fmt.Fprintln(w, "predictor:", h.Name())
		fmt.Fprintf(w, "budget:    %d bits (%.1f KB)\n\n", h.SizeBits(), float64(h.SizeBits())/8192)
		if *timing {
			timingReport(w, pipeline.Run(progs[0], h, pipeline.DefaultConfig(),
				pipeline.Options{WarmupBranches: *warmup, MeasureBranches: *measure}))
			return nil
		}
	}

	// cols[k][bi] is cell k's result on program bi, all from one pass
	// of each workload's committed stream.
	cols, err := sim.Matrix(builders, progs, sim.Options{WarmupBranches: *warmup, MeasureBranches: *measure}, so)
	if err != nil {
		return err
	}
	multi := len(prophets) > 1
	switch {
	case one && !rows:
		report(w, cols[0][0])
		return nil
	case *csvFlag:
		fmt.Fprintln(w, "config,fb,bench,branches,uops,prophet_misp,final_misp,prophet_misp_pct,misp_pct,misp_per_kuops,c_agree,c_disagree,i_agree,i_disagree")
	case !*diffable:
		if multi {
			fmt.Fprintf(w, "prophets: %s   critic: %s   workload: %s\n", strings.Join(prophets, ", "), *criticFlag, workload)
			fmt.Fprintf(w, "%-22s ", "config")
		} else {
			prophetCfg, err := budget.ParseSpec(prophets[0])
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "prophet: %s   critic: %s   workload: %s\n", describe(prophetCfg), *criticFlag, workload)
		}
		fmt.Fprintf(w, "%-6s %-12s %9s %9s %9s %9s %8s %8s %8s %8s\n",
			"fb", "bench", "pMisp%", "misp%", "misp/Ku", "uops/fl", "c_agr", "c_dis", "i_agr", "i_dis")
	}

	emit := func(c cell, bench string, r sim.Result) {
		pmisp := float64(r.ProphetMisp) / float64(r.Branches) * 100
		switch {
		case *csvFlag:
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%d,%d,%d,%d\n",
				c.spec, c.fb, bench, r.Branches, r.Uops, r.ProphetMisp, r.FinalMisp,
				pmisp, r.MispRate()*100, r.MispPerKuops(),
				r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
				r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
		case *diffable:
			fmt.Fprintf(w, "config=%s fb=%d bench=%s pmisp_pct=%.4f misp_pct=%.4f misp_per_kuops=%.4f c_agr=%d c_dis=%d i_agr=%d i_dis=%d\n",
				strings.ReplaceAll(c.spec, " ", "_"), c.fb, bench,
				pmisp, r.MispRate()*100, r.MispPerKuops(),
				r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
				r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
		default:
			if multi {
				fmt.Fprintf(w, "%-22s ", c.spec)
			}
			fmt.Fprintf(w, "%-6d %-12s %8.3f%% %8.3f%% %9.3f %9.0f %8d %8d %8d %8d\n",
				c.fb, bench, pmisp, r.MispRate()*100, r.MispPerKuops(), r.UopsPerFlush(),
				r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
				r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
		}
	}
	for k, c := range cells {
		agg := sim.Result{Benchmark: "POOLED"}
		for _, r := range cols[k] {
			emit(c, r.Benchmark, r)
			agg.Merge(r)
		}
		emit(c, "POOLED", agg)
		if !rows {
			if multi {
				fmt.Fprintf(w, "%-22s ", c.spec)
			}
			fmt.Fprintf(w, "%-6d %-12s mean misp/Kuops over benchmarks: %s\n", c.fb, "MEAN", metrics.Fmt(metrics.MeanMispPerKuops(cols[k]), 1, 4))
		}
	}
	return nil
}

// report writes the detailed functional report of one cell.
func report(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "branches:          %d (%d uops)\n", r.Branches, r.Uops)
	fmt.Fprintf(w, "prophet misp:      %d (%.2f%% of branches, %.3f/Kuops)\n",
		r.ProphetMisp, float64(r.ProphetMisp)/float64(r.Branches)*100, r.ProphetMispPerKuops())
	fmt.Fprintf(w, "final misp:        %d (%.2f%% of branches, %.3f/Kuops)\n",
		r.FinalMisp, r.MispRate()*100, r.MispPerKuops())
	if r.ProphetMisp > 0 {
		fmt.Fprintf(w, "critic removed:    %.1f%% of prophet mispredicts\n", (1-float64(r.FinalMisp)/float64(r.ProphetMisp))*100)
	}
	fmt.Fprintf(w, "uops per flush:    %.0f\n\n", r.UopsPerFlush())
	fmt.Fprintln(w, "critique distribution:")
	for c := core.CorrectAgree; c <= core.IncorrectNone; c++ {
		fmt.Fprintf(w, "  %-20s %d\n", c.String(), r.Critiques[c])
	}
}

// timingReport writes the timing model's report of one cell.
func timingReport(w io.Writer, r pipeline.Result) {
	fmt.Fprintf(w, "cycles:            %.0f\n", r.Cycles)
	fmt.Fprintf(w, "uPC:               %.3f\n", r.UPC())
	fmt.Fprintf(w, "misp/Kuops:        %.3f\n", r.MispPerKuops())
	fmt.Fprintf(w, "wrong-path uops:   %d (%.1f%% of committed)\n", r.WrongPathUops, float64(r.WrongPathUops)/float64(r.Uops)*100)
	fmt.Fprintf(w, "BTB miss rate:     %.4f\n", r.BTBMissRate)
	fmt.Fprintf(w, "FTQ empty rate:    %.4f\n", r.FTQEmptyRate)
	fmt.Fprintf(w, "partial critiques: %.4f\n", r.LateCritique)
	fmt.Fprintf(w, "L1I/L1D miss:      %.4f / %.4f\n", r.L1IMissRate, r.L1DMissRate)
}

// loadWorkload maps the -bench/-trace flags to the program list and a
// human-readable workload description.
func loadWorkload(bench, traceFile string) ([]*program.Program, string, error) {
	if traceFile != "" {
		p, err := trace.Load(traceFile)
		if err != nil {
			return nil, "", err
		}
		return []*program.Program{p}, fmt.Sprintf("trace %s (%s, %d events)", traceFile, p.Name, p.TraceEvents()), nil
	}
	var progs []*program.Program
	for _, entry := range strings.Split(bench, ",") {
		names, err := program.Expand(entry)
		if err != nil {
			return nil, "", err
		}
		for _, n := range names {
			p, err := program.Load(n)
			if err != nil {
				return nil, "", err
			}
			progs = append(progs, p)
		}
	}
	return progs, fmt.Sprintf("%d benchmarks", len(progs)), nil
}

// parseFutureBits parses -fb as a comma list of unsigned counts; the
// upper bound is service.HybridBuilder's to check.
func parseFutureBits(s string) ([]uint, error) {
	var out []uint
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 0)
		if err != nil {
			return nil, fmt.Errorf("-fb %q: %w", s, err)
		}
		out = append(out, uint(v))
	}
	return out, nil
}

// matchPredictors expands -p into prophet specs: each comma-separated
// entry is a case-insensitive path.Match glob over every registered
// family name and alias, with an optional :KB budget suffix (default
// 8KB). Matches come out in registry order, deduplicated; a pattern
// matching nothing is an error, not an empty run.
func matchPredictors(patterns string) ([]string, error) {
	var specs []string
	seen := make(map[string]bool)
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		glob, kb := pat, 8
		if i := strings.LastIndex(pat, ":"); i >= 0 {
			v, err := strconv.Atoi(strings.TrimSpace(pat[i+1:]))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("-p pattern %q: budget suffix %q is not a positive KB count", pat, pat[i+1:])
			}
			glob, kb = pat[:i], v
		}
		matched := false
		for _, d := range registry.All() {
			for _, name := range append([]string{d.Name}, d.Aliases...) {
				ok, err := path.Match(strings.ToLower(glob), strings.ToLower(name))
				if err != nil {
					return nil, fmt.Errorf("-p pattern %q: %w", pat, err)
				}
				if !ok {
					continue
				}
				matched = true
				spec := fmt.Sprintf("%s:%d", d.Name, kb)
				if !seen[spec] {
					seen[spec] = true
					specs = append(specs, spec)
				}
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("-p pattern %q matches no registered predictor (see pcsim -list-kinds)", pat)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-p lists no patterns")
	}
	return specs, nil
}

// describe renders a config for the banner: "2Bc-gskew @8KB" for budget
// specs, the full parameter form for explicit geometry.
func describe(c budget.Config) string {
	if c.KB > 0 {
		return fmt.Sprintf("%s @%dKB", c.Kind, c.KB)
	}
	return c.String()
}

// printKinds lists the predictor registry: every family pcsim (and the
// other CLIs and pcserved job specs) can construct, with aliases, roles,
// pinned Table 3 budgets, and the parameter schema the explicit
// kind(name=value,...) spec form accepts.
func printKinds(w io.Writer) {
	for _, d := range registry.All() {
		role := "prophet"
		if d.Critic {
			role = "prophet or filtered critic"
		}
		fmt.Fprintf(w, "%s  (%s)\n", d.Name, role)
		if len(d.Aliases) > 0 {
			fmt.Fprintf(w, "    aliases:  %s\n", strings.Join(d.Aliases, ", "))
		}
		fmt.Fprintf(w, "    %s\n", d.Desc)
		if kbs := budget.TableBudgets(budget.Kind(d.Name)); len(kbs) > 0 {
			fmt.Fprintf(w, "    Table 3 budgets (KB): %v; other budgets use the solver\n", kbs)
		} else {
			fmt.Fprintf(w, "    no Table 3 cells; budgets use the solver\n")
		}
		for _, p := range d.Params {
			pow2 := ""
			if p.Pow2 {
				pow2 = ", power of two"
			}
			fmt.Fprintf(w, "    %-12s %s (default %d, range [%d, %d]%s)\n", p.Name, p.Desc, p.Default, p.Min, p.Max, pow2)
		}
		fmt.Fprintln(w)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcsim:", err)
	os.Exit(1)
}
