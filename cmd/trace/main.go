// Command trace records and inspects branch traces, and dumps and
// restores mid-trace predictor checkpoints:
//
//	trace record -bench gcc -o gcc.trc            # capture a run
//	trace info gcc.trc                            # header + totals
//	trace checkpoint dump -trace gcc.trc -at 30000 -o gcc.ck
//	trace checkpoint info gcc.ck                  # meta + state size
//	trace checkpoint restore -trace gcc.trc -ck gcc.ck -measure 50000
//
// record captures the default simulation window (sim.DefaultOptions,
// the one pcsim and pcserved job specs use), CFG included, so
// `pcsim -trace` prints the same report as `pcsim -bench` on the
// recorded benchmark.
// Every simulation tool replays a trace through its -trace flag.
//
// checkpoint dump simulates the workload's first -at branches into a
// predictor and serializes its complete state (internal/checkpoint);
// restore rebuilds the predictor from the checkpoint's own metadata,
// fast-forwards the workload to the recorded position, and measures from
// there — producing exactly the result a full run measuring the same
// window would, without re-training the prefix.
package main

import (
	"flag"
	"fmt"
	"os"

	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/service"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "checkpoint":
		checkpointCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  trace record -bench <name> -o <file> [-warmup N] [-measure N]
  trace info   <file>
  trace checkpoint dump    (-trace <file> | -bench <name>) -at N -o <ck>
                           [-prophet kind:KB] [-critic kind:KB|none]
                           [-fb N] [-unfiltered]
  trace checkpoint info    <ck>
  trace checkpoint restore (-trace <file> | -bench <name>) -ck <ck>
                           [-measure N]`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark to record")
	out := fs.String("o", "", "output trace file")
	warmup := fs.Int("warmup", sim.DefaultOptions.WarmupBranches, "warmup branches to record")
	measure := fs.Int("measure", sim.DefaultOptions.MeasureBranches, "measured branches to record")
	fs.Parse(args)
	if *bench == "" || *out == "" {
		fatal(fmt.Errorf("record needs -bench and -o"))
	}
	p, err := program.Load(*bench)
	if err != nil {
		fatal(err)
	}
	if err := sim.ValidateWindow(p, *warmup, *measure); err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := trace.Record(p, *warmup, *measure, f); err != nil {
		f.Close()
		os.Remove(*out)
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %s: %d branches (%d warmup + %d measured), %d static branches, %d bytes\n",
		*bench, *warmup+*measure, *warmup, *measure, p.NumBlocks(), st.Size())
}

func info(args []string) {
	fs := flag.NewFlagSet("trace info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("info needs exactly one trace file"))
	}
	meta, stats, hasCFG, err := trace.Info(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := "none (observed edges only; unobserved edges end walks early)"
	if hasCFG {
		cfg = "recorded (wrong-path walks replay exactly)"
	}
	fmt.Printf("workload:   %s/%s (seed %#x)\n", meta.Suite, meta.Name, meta.Seed)
	fmt.Printf("window:     %d warmup + %d measured branches\n", meta.Warmup, meta.Measure)
	fmt.Printf("events:     %d committed branches\n", stats.Events)
	fmt.Printf("blocks:     %d static branches\n", stats.Blocks)
	fmt.Printf("CFG:        %s\n", cfg)
}

// buildHybrid assembles the predictor through the shared construction
// path (service.HybridBuilder), so the CLIs, the experiment harness,
// and the pcserved scheduler all agree on spec syntax and semantics.
func buildHybrid(prophetSpec, criticSpec string, fb uint, unfiltered bool) (*core.Hybrid, error) {
	build, err := service.HybridBuilder(prophetSpec, criticSpec, fb, unfiltered)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
