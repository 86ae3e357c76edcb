package pipeline

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prophetcritic/internal/budget"
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/program"
	"prophetcritic/internal/registry"
	"prophetcritic/internal/trace"
)

// Workload sources of FuzzTimingEquivalence.
const (
	srcSynthetic uint8 = iota // a generated program
	srcTrace                  // its committed stream recorded and replayed, CFG included
	srcInferred               // replayed with the CFG inferred from the stream, so walks end early
	numSources
)

// specReader draws the fuzzer's hybrid specs from bytes; past the end
// every draw is 0.
type specReader []byte

func (r *specReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzHybrid is one drawn configuration: a registry kind and size per
// component (no critic for a prophet alone), future bits and filtering.
type fuzzHybrid struct {
	prophet, critic budget.Config
	alone, filtered bool
	fb              uint
}

func (c fuzzHybrid) build() *core.Hybrid {
	if c.alone {
		return core.New(c.prophet.Build(), nil, core.Config{})
	}
	crit := c.critic.Build()
	bor := max(c.critic.BORSize(), crit.HistoryLen(), c.fb)
	return core.New(c.prophet.Build(), crit, core.Config{FutureBits: c.fb, Filtered: c.filtered, BORLen: bor})
}

// drawHybrids reads N = 1–16 configurations: each a registered kind at
// 1–16 KB as prophet, alone or with a registered critic at 1–16 KB,
// filtered when the draw asks and the critic is tagged, at 0–12 future
// bits. A draw may instead repeat the previous prophet, so same-prophet
// peers share a prophet lane. It reports false when a size does not
// resolve.
func drawHybrids(spec []byte) ([]fuzzHybrid, bool) {
	r := specReader(spec)
	kinds := registry.All()
	resolve := func() (budget.Config, bool) {
		k, err := budget.CanonicalKind(kinds[r.next()%len(kinds)].Name)
		if err != nil {
			return budget.Config{}, false
		}
		c, err := budget.Resolve(k, 1+r.next()%16)
		return c, err == nil
	}
	n := 1 + r.next()%16
	hs := make([]fuzzHybrid, 0, n)
	for i := 0; i < n; i++ {
		var h fuzzHybrid
		ok := true
		if b := r.next(); i > 0 && b%2 == 1 {
			h.prophet = hs[i-1].prophet
		} else if h.prophet, ok = resolve(); !ok {
			return nil, false
		}
		if b := r.next(); b%4 == 0 {
			h.alone = true
		} else {
			if h.critic, ok = resolve(); !ok {
				return nil, false
			}
			_, tagged := h.critic.Build().(predictor.Tagged)
			h.filtered = tagged && b%2 == 1
			h.fb = uint(r.next() % 13)
		}
		hs = append(hs, h)
	}
	return hs, true
}

// fuzzProgram returns a short generated program, or its first n
// committed events replayed with a recorded or an inferred CFG.
func fuzzProgram(t *testing.T, seed uint64, src uint8, n int) *program.Program {
	p := program.Generate(program.Spec{
		Name:    "fuzz",
		Seed:    seed,
		Sites:   40 + int(seed%400),
		AvgUops: 4 + int(seed>>9%20),
		FPFrac:  float64(seed>>17%4) / 10,
	})
	switch src % numSources {
	case srcTrace:
		return recordProgram(t, p, n)
	case srcInferred:
		run := p.NewRun()
		evs := make([]program.Event, n)
		for i := range evs {
			evs[i] = run.Next()
		}
		q, err := program.FromTrace(program.TraceInfo{Name: "fuzz-inferred"},
			(&eventSlice{evs: evs}).Next)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return p
}

// eventSlice replays recorded events as a trace stream.
type eventSlice struct {
	evs []program.Event
	pos int
}

func (s *eventSlice) Next() (program.Event, error) {
	if s.pos == len(s.evs) {
		return program.Event{}, io.EOF
	}
	s.pos++
	return s.evs[s.pos-1], nil
}

// recordProgram records p's first branches through internal/trace and
// loads them back as a replay program.
func recordProgram(t *testing.T, p *program.Program, branches int) *program.Program {
	t.Helper()
	path := filepath.Join(t.TempDir(), p.Name+".trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(p, 0, branches, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// FuzzTimingEquivalence holds RunMany — core's lanes writing the
// verdict tape, the shared tape, one accountant per hybrid — to the
// branch-at-a-time oracle on fuzzed hybrid sets, windows and programs:
// every Result must be identical to runOracle's for that hybrid alone.
func FuzzTimingEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint16(0), uint16(300), uint64(1), srcSynthetic)
	f.Add([]byte{15, 0, 2, 3, 1, 4, 8, 1, 1, 1, 5, 9, 3}, uint16(777), uint16(1500), uint64(0xbeef), srcSynthetic)
	f.Add([]byte{3, 0, 4, 1, 3, 1, 2, 12, 1, 3, 3, 8, 1, 4, 1, 2, 2}, uint16(257), uint16(900), uint64(42), srcTrace)
	f.Add([]byte{4, 0, 1, 7, 1, 3, 0, 12, 1, 2, 6, 4, 1, 1, 1, 5, 6, 1, 1, 2, 3, 2}, uint16(1001), uint16(1200), uint64(7), srcInferred)
	f.Fuzz(func(t *testing.T, spec []byte, warm, measure uint16, seed uint64, src uint8) {
		hs, ok := drawHybrids(spec)
		if !ok {
			t.Skip("a drawn size does not resolve")
		}
		opt := Options{WarmupBranches: int(warm % 2048), MeasureBranches: 1 + int(measure%2048)}
		p := fuzzProgram(t, seed, src, opt.WarmupBranches+opt.MeasureBranches)
		cfg := DefaultConfig()
		want := make([]Result, len(hs))
		built := make([]*core.Hybrid, len(hs))
		for i, h := range hs {
			want[i] = runOracle(p, h.build(), cfg, opt)
			built[i] = h.build()
		}
		for i, got := range RunMany(p, built, cfg, opt) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("hybrid %d of %d (%+v):\n got %+v\nwant %+v", i, len(hs), hs[i], got, want[i])
			}
		}
	})
}
