// Command sweep runs free-form prophet/critic parameter sweeps:
//
//	sweep -bench gcc,unzip -prophet 2Bc-gskew:8 -critic "tagged gshare:8" -fb 0,1,4,8,12
//	sweep -prophet yags:8 -critic none        # any registered family
//	sweep -prophet "gshare(entries=8192,hist=13)"   # explicit geometry
//	sweep -p 'g*' -critic none                # every family matching a glob
//	sweep -p '*:16' -fb 1 -csv                # all families at 16KB, CSV rows
//	sweep -p 'perceptron,yags' -diffable      # stable line-per-cell output
//	sweep -list-kinds                         # registry + param schemas
//	sweep -trace gcc.trc -fb 0,1,4
//	sweep -trace gcc.trc -shards 8            # intra-workload parallel, exact
//	sweep -trace gcc.trc -shards 8 -warmup-frac 0.25   # faster, approximate
//
// It prints one row per (benchmark, future-bit count) with prophet and
// final mispredict rates, misp/Kuops, and the critique distribution, and
// is the calibration tool used while tuning the synthetic workloads.
// Predictor specs accept the full budget grammar: Table 3 cells resolve
// to the published geometry, off-table budgets invoke the family's
// solver, and kind(name=value,...) sets explicit geometry.
//
// -p sweeps SETS of prophets: a comma-separated list of case-insensitive
// glob patterns matched against every registered family name and alias,
// each with an optional :KB budget suffix (default 8). All selected
// configurations are evaluated in ONE pass of each workload's committed
// stream (sim.Matrix), so adding predictors to a sweep costs predictor
// time, not another decode of the workload — with rows bit-identical to
// running each alone. -csv emits machine-readable rows and -diffable
// emits stable key=value lines (both suppress the banner and the mean
// summary), for piping into cut/join or diffing two sweeps.
//
// With -trace, the workload is a recorded branch trace instead of a
// named synthetic benchmark; a trace recorded with the default window
// replays to exactly the rows the direct run produces. With -shards K,
// each workload's measurement window is split into K intervals simulated
// in parallel; at the default -warmup-frac 1 the rows are bit-identical
// to the sequential run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"strconv"
	"strings"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/metrics"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

func main() {
	var (
		benchFlag   = flag.String("bench", "all", "comma-separated benchmark names, suite names, or 'all'")
		traceFlag   = flag.String("trace", "", "replay a recorded trace file as the workload (overrides -bench)")
		prophetFlag = flag.String("prophet", "2Bc-gskew:8", "prophet spec: kind:KB or kind(name=value,...); see sweep -list-kinds")
		patterns    = flag.String("p", "", "comma-separated predictor glob patterns with optional :KB suffix (e.g. 'g*,perceptron:16'); overrides -prophet")
		criticFlag  = flag.String("critic", "tagged gshare:8", "critic spec (same grammar as -prophet), or 'none'")
		fbFlag      = flag.String("fb", "8", "comma-separated future bit counts")
		warmup      = flag.Int("warmup", sim.DefaultOptions.WarmupBranches, "warmup branches")
		measure     = flag.Int("measure", sim.DefaultOptions.MeasureBranches, "measured branches")
		unfiltered  = flag.Bool("unfiltered", false, "use the critic unfiltered even if tagged")
		verbose     = flag.Bool("v", false, "per-benchmark rows (default prints means only)")
		csvFlag     = flag.Bool("csv", false, "emit CSV rows instead of the table")
		diffable    = flag.Bool("diffable", false, "emit stable key=value lines instead of the table")
		shards      = flag.Int("shards", 1, "split each workload's measurement window into K parallel intervals")
		warmupFrac  = flag.Float64("warmup-frac", 1, "fraction of each shard's prefix replayed as warmup (1 = exact)")
		listKinds   = flag.Bool("list-kinds", false, "list every registered predictor family with its parameter schema and exit")
	)
	flag.Parse()

	if *listKinds {
		printKinds()
		return
	}
	if *csvFlag && *diffable {
		fatal(fmt.Errorf("-csv and -diffable are mutually exclusive"))
	}

	progs, workload, err := resolveWorkload(*benchFlag, *traceFlag)
	if err != nil {
		fatal(err)
	}
	prophets := []string{*prophetFlag}
	if *patterns != "" {
		if prophets, err = matchPredictors(*patterns); err != nil {
			fatal(err)
		}
	}
	fbs, err := parseInts(*fbFlag)
	if err != nil {
		fatal(err)
	}
	if err := validateFutureBits(fbs); err != nil {
		fatal(err)
	}
	for _, p := range progs {
		if err := sim.ValidateWindow(p, *warmup, *measure); err != nil {
			fatal(err)
		}
	}

	// One combo per (prophet × future-bit count), validated up front
	// through the shared construction path — a malformed spec or a count
	// exceeding the critic's BOR must fail before any simulation runs,
	// not panic mid-sweep.
	type combo struct {
		spec string
		fb   int
	}
	var combos []combo
	var builders []sim.Builder
	for _, spec := range prophets {
		for _, fb := range fbs {
			b, err := service.HybridBuilder(spec, *criticFlag, uint(fb), *unfiltered)
			if err != nil {
				fatal(err)
			}
			combos = append(combos, combo{spec, fb})
			builders = append(builders, b)
		}
	}

	// Every combo runs in one pass of each workload's committed stream:
	// cols[k][bi] is combo k's result on program bi.
	opt := sim.Options{WarmupBranches: *warmup, MeasureBranches: *measure}
	so := sim.ShardOptions{Shards: *shards, WarmupFrac: *warmupFrac}
	cols, err := sim.Matrix(builders, progs, opt, so)
	if err != nil {
		fatal(err)
	}

	multi := len(prophets) > 1
	if !*csvFlag && !*diffable {
		if multi {
			fmt.Printf("prophets: %s   critic: %s   workload: %s\n", strings.Join(prophets, ", "), *criticFlag, workload)
		} else {
			prophetCfg, err := budget.ParseSpec(prophets[0])
			if err != nil {
				fatal(err)
			}
			fmt.Printf("prophet: %s   critic: %s   workload: %s\n", describe(prophetCfg), *criticFlag, workload)
		}
		if multi {
			fmt.Printf("%-22s ", "config")
		}
		fmt.Printf("%-6s %-12s %9s %9s %9s %9s %8s %8s %8s %8s\n",
			"fb", "bench", "pMisp%", "misp%", "misp/Ku", "uops/fl", "c_agr", "c_dis", "i_agr", "i_dis")
	}
	if *csvFlag {
		fmt.Println("config,fb,bench,branches,uops,prophet_misp,final_misp,prophet_misp_pct,misp_pct,misp_per_kuops,c_agree,c_disagree,i_agree,i_disagree")
	}

	emit := func(spec string, fb int, bench string, r sim.Result) {
		switch {
		case *csvFlag:
			fmt.Printf("%s,%d,%s,%d,%d,%d,%d,%.4f,%.4f,%.4f,%d,%d,%d,%d\n",
				spec, fb, bench, r.Branches, r.Uops, r.ProphetMisp, r.FinalMisp,
				float64(r.ProphetMisp)/float64(r.Branches)*100, r.MispRate()*100, r.MispPerKuops(),
				r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
				r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
		case *diffable:
			fmt.Printf("config=%s fb=%d bench=%s pmisp_pct=%.4f misp_pct=%.4f misp_per_kuops=%.4f c_agr=%d c_dis=%d i_agr=%d i_dis=%d\n",
				strings.ReplaceAll(spec, " ", "_"), fb, bench,
				float64(r.ProphetMisp)/float64(r.Branches)*100, r.MispRate()*100, r.MispPerKuops(),
				r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
				r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
		default:
			if multi {
				fmt.Printf("%-22s ", spec)
			}
			printRow(strconv.Itoa(fb), bench, r)
		}
	}

	for k, c := range combos {
		rs := cols[k]
		if *verbose || *csvFlag || *diffable {
			for _, r := range rs {
				emit(c.spec, c.fb, r.Benchmark, r)
			}
		}
		agg := sim.Result{Benchmark: "POOLED"}
		for _, r := range rs {
			agg.Merge(r)
		}
		emit(c.spec, c.fb, "POOLED", agg)
		if !*csvFlag && !*diffable {
			mean := metrics.MeanMispPerKuops(rs)
			if multi {
				fmt.Printf("%-22s ", c.spec)
			}
			fmt.Printf("%-6s %-12s mean misp/Kuops over benchmarks: %s\n", strconv.Itoa(c.fb), "MEAN", metrics.Fmt(mean, 1, 4))
		}
	}
}

func printRow(fb string, name string, r sim.Result) {
	fmt.Printf("%-6s %-12s %8.3f%% %8.3f%% %9.3f %9.0f %8d %8d %8d %8d\n",
		fb, name,
		float64(r.ProphetMisp)/float64(r.Branches)*100,
		r.MispRate()*100,
		r.MispPerKuops(),
		r.UopsPerFlush(),
		r.Critiques[core.CorrectAgree], r.Critiques[core.CorrectDisagree],
		r.Critiques[core.IncorrectAgree], r.Critiques[core.IncorrectDisagree])
}

// matchPredictors expands -p into prophet specs: each comma-separated
// entry is a case-insensitive path.Match glob over every registered
// family name and alias, with an optional :KB budget suffix (default
// 8KB). Matches come out in registry order, deduplicated; a pattern
// matching nothing is an error, not an empty sweep.
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
			return nil, fmt.Errorf("-p pattern %q matches no registered predictor (see sweep -list-kinds)", pat)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-p lists no patterns")
	}
	return specs, nil
}

// resolveWorkload maps the -bench/-trace flags to the program list and a
// human-readable workload description.
func resolveWorkload(bench, traceFile string) ([]*program.Program, string, error) {
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

// validateFutureBits rejects future-bit counts outside [0,
// core.MaxFutureBits]; a negative value would otherwise wrap to a huge
// uint and panic deep inside core.New.
func validateFutureBits(fbs []int) error {
	if len(fbs) == 0 {
		return fmt.Errorf("-fb lists no future bit counts")
	}
	for _, fb := range fbs {
		if fb < 0 || fb > core.MaxFutureBits {
			return fmt.Errorf("-fb %d out of range [0, %d]", fb, core.MaxFutureBits)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// describe renders a config for the banner: "2Bc-gskew @8KB" for budget
// specs, the full parameter form for explicit geometry.
func describe(c budget.Config) string {
	if c.KB > 0 {
		return fmt.Sprintf("%s @%dKB", c.Kind, c.KB)
	}
	return c.String()
}

// printKinds lists the predictor registry: every family sweep (and the
// other CLIs and pcserved job specs) can construct, with aliases, roles,
// pinned Table 3 budgets, and the parameter schema the explicit
// kind(name=value,...) spec form accepts.
func printKinds() {
	for _, d := range registry.All() {
		role := "prophet"
		if d.Critic {
			role = "prophet or filtered critic"
		}
		fmt.Printf("%s  (%s)\n", d.Name, role)
		if len(d.Aliases) > 0 {
			fmt.Printf("    aliases:  %s\n", strings.Join(d.Aliases, ", "))
		}
		fmt.Printf("    %s\n", d.Desc)
		if kbs := budget.TableBudgets(budget.Kind(d.Name)); len(kbs) > 0 {
			fmt.Printf("    Table 3 budgets (KB): %v; other budgets use the solver\n", kbs)
		} else {
			fmt.Printf("    no Table 3 cells; budgets use the solver\n")
		}
		for _, p := range d.Params {
			pow2 := ""
			if p.Pow2 {
				pow2 = ", power of two"
			}
			fmt.Printf("    %-12s %s (default %d, range [%d, %d]%s)\n", p.Name, p.Desc, p.Default, p.Min, p.Max, pow2)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
