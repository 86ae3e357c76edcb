package experiments

import (
	"fmt"
	"io"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/frontend"
	"prophetcritic/internal/pipeline"
	"prophetcritic/internal/program"
	"prophetcritic/internal/sim"
)

// Table1 prints the simulated benchmark suites — the synthetic workload
// inventory standing in for the paper's 108 benchmarks / 341 LITs.
func Table1(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Table 1. Simulated benchmark suites (synthetic stand-ins; see DESIGN.md §3).")
	fmt.Fprintf(w, "%-8s %6s  %s\n", "Suite", "Bench.", "Benchmarks (static branches)")
	suites := program.Suites()
	total := 0
	for _, s := range program.SuiteOrder {
		names := suites[s]
		if len(names) == 0 {
			continue // e.g. TRACE: replayed workloads, no static inventory
		}
		total += len(names)
		line := ""
		for i, n := range names {
			if i > 0 {
				line += ", "
			}
			p := program.MustLoad(n)
			line += fmt.Sprintf("%s (%d)", n, p.NumBlocks())
		}
		fmt.Fprintf(w, "%-8s %6d  %s\n", s, len(names), line)
	}
	fmt.Fprintf(w, "%-8s %6d\n", "Total", total)
	return nil
}

// Table2 prints the machine configuration.
func Table2(w io.Writer, opt Options) error {
	cfg := pipeline.DefaultConfig()
	fe := frontend.DefaultConfig
	fmt.Fprintln(w, "Table 2. Simulation parameters.")
	rows := [][2]string{
		{"Fetch/Issue/Retire Width", fmt.Sprintf("%d uops", cfg.FetchWidth)},
		{"Branch Mispredict Penalty", fmt.Sprintf("%d cycles (minimum; fetch-to-execute depth %d)", cfg.MispredictPenalty, cfg.PipeDepth)},
		{"BTB", fmt.Sprintf("%d entries, %d-way", cfg.BTBEntries, cfg.BTBWays)},
		{"FTQ Size", fmt.Sprintf("%d entries", fe.FTQCapacity)},
		{"Prophet / Critic Rates", fmt.Sprintf("%.0f predictions/cycle, %.0f critiques/cycle", fe.ProphetRate, fe.CriticRate)},
		{"Instruction Window Size", fmt.Sprintf("%d uops", cfg.WindowSize)},
		{"Instruction Cache", "64 KB, 8-way, 64-byte line"},
		{"L1 Data Cache", "32 KB, 16-way, 64-byte line, 3 cycle hit"},
		{"L2 Unified Cache", "2 MB, 16-way, 64-byte line, 16 cycle hit"},
		{"Memory Latency", "380 cycles (100 ns at 3.8 GHz)"},
		{"Hardware Data Prefetcher", "Stream-based (16 streams)"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %s\n", r[0], r[1])
	}
	return nil
}

// Table3 prints the prophet and critic configurations per hardware budget
// and verifies each against its byte budget.
func Table3(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Table 3. Prophet and critic configurations (published values; measured bits in brackets).")
	fmt.Fprintf(w, "%-20s %-28s %6s %10s %8s\n", "Predictor", "Configuration", "Budget", "Bits", "Fit")
	for _, c := range budget.All() {
		p := c.Build()
		desc := ""
		switch c.Kind {
		case budget.Gshare:
			desc = fmt.Sprintf("%dK entries, h=%d", c.Params["entries"]/1024, c.HistLen())
		case budget.Perceptron:
			desc = fmt.Sprintf("%d perceptrons, h=%d", c.Params["perceptrons"], c.HistLen())
		case budget.Gskew:
			desc = fmt.Sprintf("%dK entries/table, h=%d", c.Params["entries"]/1024, c.HistLen())
		case budget.TaggedGshare:
			desc = fmt.Sprintf("%dx%d-way, BOR=%d", c.Params["sets"], c.Params["ways"], c.BORSize())
		case budget.FilteredPerceptron:
			desc = fmt.Sprintf("%d perc. h=%d, flt %dx%d, BOR=%d", c.Params["perceptrons"], c.HistLen(), c.Params["fsets"], c.Params["fways"], c.BORSize())
		}
		fit := "ok"
		if p.SizeBits() > c.KB*8192*102/100 {
			fit = "OVERFLOW"
		}
		fmt.Fprintf(w, "%-20s %-28s %4dKB %10d %8s\n", c.Kind, desc, c.KB, p.SizeBits(), fit)
	}
	return nil
}

// Table4 measures the percentage of prophet predictions filtered by the
// critic (no explicit critique), for critic sizes 2/8/32KB and 1/4/12
// future bits, with a 4KB perceptron prophet — the paper's Table 4. All
// nine configurations run over all benchmarks as one concurrent matrix.
func Table4(w io.Writer, opt Options) error {
	criticKBs := []int{2, 8, 32}
	futureBits := []uint{1, 4, 12}
	var builds []sim.Builder
	for _, kb := range criticKBs {
		for _, fb := range futureBits {
			builds = append(builds, hybridBuilder(budget.Perceptron, 4, budget.TaggedGshare, kb, fb, false))
		}
	}
	progs, err := opt.Programs(benchmarkNames())
	if err != nil {
		return err
	}
	matrix, err := sim.Matrix(builds, progs, opt.Functional, opt.Shards)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Table 4. Percentage of prophet predictions filtered by the critic")
	fmt.Fprintln(w, "(prophet: 4KB perceptron; critic: tagged gshare; averaged over all benchmarks).")
	fmt.Fprintf(w, "%-18s", "")
	for _, kb := range criticKBs {
		fmt.Fprintf(w, "     %dKB critic (1/4/12 fb)", kb)
	}
	fmt.Fprintln(w)
	type cell struct{ correct, incorrect, total float64 }
	cells := map[int]map[uint]cell{}
	row := 0
	for _, kb := range criticKBs {
		cells[kb] = map[uint]cell{}
		for _, fb := range futureBits {
			rs := matrix[row]
			row++
			var c, i float64
			var branches uint64
			var cn, in uint64
			for _, r := range rs {
				cn += r.Critiques[core.CorrectNone]
				in += r.Critiques[core.IncorrectNone]
				branches += r.Branches
			}
			c = float64(cn) / float64(branches) * 100
			i = float64(in) / float64(branches) * 100
			cells[kb][fb] = cell{c, i, c + i}
		}
	}
	rows := []struct {
		label string
		pick  func(cell) float64
	}{
		{"% correct none", func(c cell) float64 { return c.correct }},
		{"% incorrect none", func(c cell) float64 { return c.incorrect }},
		{"% none (Total)", func(c cell) float64 { return c.total }},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-18s", row.label)
		for _, kb := range []int{2, 8, 32} {
			for _, fb := range []uint{1, 4, 12} {
				fmt.Fprintf(w, " %7.1f", row.pick(cells[kb][fb]))
			}
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintln(w)
	}
	return nil
}
