// Command experiments regenerates the paper's tables and figures:
//
//	experiments -exp fig5          # one experiment
//	experiments -exp all           # everything, in paper order
//	experiments -exp all -fast     # reduced windows (smoke test)
//	experiments -exp all -shards 8 # intra-workload parallel functional sims
//	experiments -list              # enumerate experiment ids
//	experiments -exp fig7a -kinds yags,tournament,local
//	                               # sweep registry families outside Table 3
//
// Output is plain text, one table per experiment, deterministic for a
// given configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prophetcritic/internal/experiments"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all'")
		fast       = flag.Bool("fast", false, "use reduced measurement windows")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		traceFlag  = flag.String("trace", "", "replay a recorded trace file as the workload of every simulation experiment")
		shards     = flag.Int("shards", 1, "split each functional simulation into K parallel intervals")
		warmupFrac = flag.Float64("warmup-frac", 1, "fraction of each shard's prefix replayed as warmup (1 = exact)")
		kinds      = flag.String("kinds", "", "comma-separated prophet kinds for the kind-sweeping experiments (fig7a/b, fig9); any registered family")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := experiments.Full
	if *fast {
		opt = experiments.Fast
	}
	opt.Shards = sim.ShardOptions{Shards: *shards, WarmupFrac: *warmupFrac}
	if err := opt.Shards.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			opt.Kinds = append(opt.Kinds, strings.TrimSpace(k))
		}
	}
	if *traceFlag != "" {
		p, err := trace.Load(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Replay cannot run past the recorded stream: both simulators'
		// windows must fit the trace.
		for _, w := range [][2]int{
			{opt.Functional.WarmupBranches, opt.Functional.MeasureBranches},
			{opt.Timing.WarmupBranches, opt.Timing.MeasureBranches},
		} {
			if err := sim.ValidateWindow(p, w[0], w[1]); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v; record a longer trace or use -fast\n", err)
				os.Exit(1)
			}
		}
		opt.Workloads = []*program.Program{p}
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
