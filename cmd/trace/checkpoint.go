package main

// The `trace checkpoint` subcommand: dump, inspect, and restore
// mid-workload predictor state through the internal/checkpoint codec.

import (
	"flag"
	"fmt"
	"os"

	"prophetcritic/internal/checkpoint"
	"prophetcritic/internal/core"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
	"prophetcritic/internal/trace"
)

func checkpointCmd(args []string) {
	if len(args) < 1 {
		usage()
	}
	switch args[0] {
	case "dump":
		checkpointDump(args[1:])
	case "info":
		checkpointInfo(args[1:])
	case "restore":
		checkpointRestore(args[1:])
	default:
		usage()
	}
}

// loadWorkload resolves the -trace/-bench pair shared by dump and
// restore: exactly one must be given.
func loadWorkload(bench, traceFile string) (*program.Program, error) {
	switch {
	case traceFile != "" && bench != "":
		return nil, fmt.Errorf("give either -trace or -bench, not both")
	case traceFile != "":
		return trace.Load(traceFile)
	case bench != "":
		return program.Load(bench)
	default:
		return nil, fmt.Errorf("a workload is required: -trace <file> or -bench <name>")
	}
}

func checkpointDump(args []string) {
	fs := flag.NewFlagSet("trace checkpoint dump", flag.ExitOnError)
	traceFlag := fs.String("trace", "", "workload trace file")
	bench := fs.String("bench", "", "synthetic benchmark workload")
	prophetFlag := fs.String("prophet", "2Bc-gskew:8", "prophet spec: kind:KB or kind(name=value,...); see pcsim -list-kinds")
	criticFlag := fs.String("critic", "tagged gshare:8", "critic spec (same grammar as -prophet), or 'none'")
	fb := fs.Uint("fb", 1, "number of future bits")
	unfiltered := fs.Bool("unfiltered", false, "critique every branch (no tag filter)")
	at := fs.Int("at", 0, "branches to simulate before the snapshot")
	out := fs.String("o", "", "output checkpoint file")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("checkpoint dump needs -o"))
	}
	if *at <= 0 {
		fatal(fmt.Errorf("checkpoint position -at must be positive, got %d", *at))
	}
	if *fb > core.MaxFutureBits {
		fatal(fmt.Errorf("-fb %d exceeds the maximum of %d", *fb, core.MaxFutureBits))
	}
	p, err := loadWorkload(*bench, *traceFlag)
	if err != nil {
		fatal(err)
	}
	if p.IsReplay() && uint64(*at) > p.TraceEvents() {
		fatal(fmt.Errorf("position %d exceeds the trace's %d recorded events", *at, p.TraceEvents()))
	}
	h, err := buildHybrid(*prophetFlag, *criticFlag, *fb, *unfiltered)
	if err != nil {
		fatal(err)
	}

	// Train the predictor over the prefix, then serialize it.
	sim.RunSegment(p, h, 0, *at, 0)
	meta := checkpoint.Meta{
		Workload:   p.Name,
		Prophet:    *prophetFlag,
		Critic:     *criticFlag,
		FutureBits: *fb,
		Unfiltered: *unfiltered,
		Position:   uint64(*at),
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := checkpoint.WriteFile(f, meta, h); err != nil {
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
	fmt.Printf("checkpointed %s at branch %d: %s, %d bytes\n", p.Name, *at, h.Name(), st.Size())
}

func checkpointInfo(args []string) {
	fs := flag.NewFlagSet("trace checkpoint info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("checkpoint info needs exactly one checkpoint file"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	meta, dec, err := checkpoint.ReadFile(f)
	if err != nil {
		fatal(err)
	}
	mode := "filtered"
	if meta.Unfiltered {
		mode = "unfiltered"
	}
	fmt.Printf("workload:   %s\n", meta.Workload)
	fmt.Printf("prophet:    %s\n", meta.Prophet)
	fmt.Printf("critic:     %s (%s, %d future bits)\n", meta.Critic, mode, meta.FutureBits)
	fmt.Printf("position:   %d committed branches\n", meta.Position)
	fmt.Printf("state:      %d bytes\n", dec.Remaining())
}

func checkpointRestore(args []string) {
	fs := flag.NewFlagSet("trace checkpoint restore", flag.ExitOnError)
	traceFlag := fs.String("trace", "", "workload trace file")
	bench := fs.String("bench", "", "synthetic benchmark workload")
	ckFile := fs.String("ck", "", "checkpoint file to restore")
	measure := fs.Int("measure", 0, "branches to measure after the restore point (default: the trace's recorded measure window)")
	fs.Parse(args)
	if *ckFile == "" {
		fatal(fmt.Errorf("checkpoint restore needs -ck"))
	}
	p, err := loadWorkload(*bench, *traceFlag)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*ckFile)
	if err != nil {
		fatal(err)
	}
	meta, dec, err := checkpoint.ReadFile(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if meta.Workload != p.Name {
		fatal(fmt.Errorf("checkpoint was taken on workload %q, not %q", meta.Workload, p.Name))
	}

	m := *measure
	if m <= 0 {
		_, m = p.TraceWindow()
	}
	if err := sim.ValidateWindow(p, int(meta.Position), m); err != nil {
		fatal(err)
	}

	// Rebuild the predictor structure the checkpoint describes, then
	// load its state.
	h, err := buildHybrid(meta.Prophet, meta.Critic, meta.FutureBits, meta.Unfiltered)
	if err != nil {
		fatal(err)
	}
	if err := h.Restore(dec); err != nil {
		fatal(err)
	}

	fmt.Printf("restored %s at branch %d, measuring %d branches\n", p.Name, meta.Position, m)
	fmt.Println("predictor:", h.Name())
	r := sim.RunSegment(p, h, int(meta.Position), 0, m)
	fmt.Printf("\nbranches:     %d (%d uops)\n", r.Branches, r.Uops)
	fmt.Printf("prophet misp: %d (%.3f%% of branches)\n", r.ProphetMisp, float64(r.ProphetMisp)/float64(r.Branches)*100)
	fmt.Printf("final misp:   %d (%.3f%% of branches, %.4f/Kuops)\n", r.FinalMisp, r.MispRate()*100, r.MispPerKuops())
	fmt.Println("\ncritique distribution:")
	for c := core.CorrectAgree; c <= core.IncorrectNone; c++ {
		fmt.Printf("  %-20s %d\n", c.String(), r.Critiques[c])
	}
}
