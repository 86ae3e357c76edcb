package trace

import (
	"fmt"
	"io"
	"os"

	"prophetcritic/internal/program"
)

// Record executes p for warmup+measure committed branches and writes the
// resulting trace — complete static CFG plus the committed event stream —
// to w. Replaying the trace with the same window and the same predictor
// reproduces the original run's sim.Result bit for bit, because the
// recorded CFG makes even speculative wrong-path walks identical.
func Record(p *program.Program, warmup, measure int, w io.Writer) error {
	if warmup < 0 || measure <= 0 {
		return fmt.Errorf("trace: invalid record window (warmup %d, measure %d)", warmup, measure)
	}
	tw, err := NewWriter(w, Meta{
		Name: p.Name, Suite: p.Suite, Seed: p.Seed(),
		Warmup: warmup, Measure: measure,
	}, p.Blocks())
	if err != nil {
		return err
	}
	run := p.NewRun()
	buf := make([]program.Event, 256)
	for left := warmup + measure; left > 0; {
		k := run.NextBlock(buf[:min(left, len(buf))])
		if k == 0 {
			run.CurrentAddr() // panics: the replayed CFG has no successor edge here
		}
		for i := range buf[:k] {
			if err := tw.WriteEvent(buf[i]); err != nil {
				return err
			}
		}
		left -= k
	}
	return tw.Close()
}

// Read decodes a whole trace from r, in one pass, into a replay program
// (program.FromTrace). The program keeps the CFG and one outcome bit per
// recorded branch; it never reads r again and is safe for concurrent
// simulation.
func Read(r io.Reader) (*program.Program, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	meta := tr.Meta()
	return program.FromTrace(program.TraceInfo{
		Name: meta.Name, Suite: meta.Suite, Seed: meta.Seed,
		Warmup: meta.Warmup, Measure: meta.Measure,
		Blocks: tr.CFG(),
	}, tr.Next)
}

// Load reads the trace file at path into a replay program (see Read).
func Load(path string) (*program.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Info scans a trace file end to end, validating it, and returns its
// metadata, its totals, and whether it carries a recorded CFG.
func Info(path string) (Meta, Stats, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, Stats{}, false, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Meta{}, Stats{}, false, err
	}
	defer r.Close()
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			return r.Meta(), Stats{}, r.CFG() != nil, err
		}
	}
	stats, _ := r.Stats()
	return r.Meta(), stats, r.CFG() != nil, nil
}
