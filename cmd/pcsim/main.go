// Command pcsim runs a single branch-prediction simulation — functional
// or timing — for one benchmark and one predictor configuration, printing
// a detailed report. It is the interactive front door to the library:
//
//	pcsim -bench gcc -prophet "2Bc-gskew:8" -critic "tagged gshare:8" -fb 1
//	pcsim -bench tpcc -prophet "perceptron:16" -critic none
//	pcsim -bench gcc -timing -fb 1
//	pcsim -trace gcc.trc -fb 1        # replay a recorded trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"prophetcritic/internal/core"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
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

// run parses args as pcsim's command line and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pcsim", flag.ContinueOnError)
	var (
		bench       = fs.String("bench", "gcc", "benchmark name (see -benchmarks)")
		traceFlag   = fs.String("trace", "", "replay a recorded trace file as the workload (overrides -bench)")
		prophetFlag = fs.String("prophet", "2Bc-gskew:8", "prophet spec: kind:KB or kind(name=value,...); see sweep -list-kinds")
		criticFlag  = fs.String("critic", "tagged gshare:8", "critic spec (same grammar as -prophet), or 'none'")
		fb          = fs.Uint("fb", 1, "number of future bits")
		unfiltered  = fs.Bool("unfiltered", false, "critique every branch (no tag filter)")
		timing      = fs.Bool("timing", false, "run the cycle timing model (uPC) instead of the functional simulator")
		warmup      = fs.Int("warmup", 120_000, "warmup branches")
		measure     = fs.Int("measure", 250_000, "measured branches")
		list        = fs.Bool("benchmarks", false, "list benchmarks and exit")
		shards      = fs.Int("shards", 1, "split the measurement window into K parallel intervals (functional runs only)")
		warmupFrac  = fs.Float64("warmup-frac", 1, "fraction of each shard's prefix replayed as warmup (1 = exact)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *list {
		for suite, names := range program.Suites() {
			fmt.Fprintf(w, "%-6s %v\n", suite, names)
		}
		return nil
	}
	var prog *program.Program
	var err error
	if *traceFlag != "" {
		if prog, err = trace.Load(*traceFlag); err != nil {
			return err
		}
		// Unless overridden on the command line, replay the window the
		// trace was recorded with — that reproduces the recorded run's
		// result bit for bit.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		tw, tm := prog.TraceWindow()
		if !set["warmup"] {
			*warmup = tw
		}
		if !set["measure"] {
			*measure = tm
		}
	} else if prog, err = program.Load(*bench); err != nil {
		return err
	}
	if err := sim.ValidateWindow(prog, *warmup, *measure); err != nil {
		return err
	}
	so := sim.ShardOptions{Shards: *shards, WarmupFrac: *warmupFrac}
	if err := so.Validate(); err != nil {
		return err
	}
	if *timing && so.Shards > 1 {
		return fmt.Errorf("-shards applies to functional runs only; the timing model is inherently sequential")
	}

	build, err := service.HybridBuilder(*prophetFlag, *criticFlag, *fb, *unfiltered)
	if err != nil {
		return err
	}
	h := build()

	fmt.Fprintln(w, "workload: ", prog)
	fmt.Fprintln(w, "predictor:", h.Name())
	fmt.Fprintf(w, "budget:    %d bits (%.1f KB)\n\n", h.SizeBits(), float64(h.SizeBits())/8192)

	if *timing {
		r := pipeline.Run(prog, h, pipeline.DefaultConfig(), pipeline.Options{WarmupBranches: *warmup, MeasureBranches: *measure})
		fmt.Fprintf(w, "cycles:            %.0f\n", r.Cycles)
		fmt.Fprintf(w, "uPC:               %.3f\n", r.UPC())
		fmt.Fprintf(w, "misp/Kuops:        %.3f\n", r.MispPerKuops())
		fmt.Fprintf(w, "wrong-path uops:   %d (%.1f%% of committed)\n", r.WrongPathUops, float64(r.WrongPathUops)/float64(r.Uops)*100)
		fmt.Fprintf(w, "BTB miss rate:     %.4f\n", r.BTBMissRate)
		fmt.Fprintf(w, "FTQ empty rate:    %.4f\n", r.FTQEmptyRate)
		fmt.Fprintf(w, "partial critiques: %.4f\n", r.LateCritique)
		fmt.Fprintf(w, "L1I/L1D miss:      %.4f / %.4f\n", r.L1IMissRate, r.L1DMissRate)
		return nil
	}

	// Matrix builds its own hybrids; the one above reported the banner.
	rs, err := sim.Matrix([]sim.Builder{build}, []*program.Program{prog},
		sim.Options{WarmupBranches: *warmup, MeasureBranches: *measure}, so)
	if err != nil {
		return err
	}
	r := rs[0][0]
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
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcsim:", err)
	os.Exit(1)
}
