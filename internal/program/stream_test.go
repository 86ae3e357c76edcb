package program_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"prophetcritic/internal/bitutil"
	"prophetcritic/internal/program"
	"prophetcritic/internal/trace"
)

// refRun is the model-driven committed stream the replay loop stands
// for: every branch calls its block's Model with that branch's State and
// the global Ctx, in commit order, and steps the CFG by the outcome.
type refRun struct {
	p      *program.Program
	states []program.State
	ctx    program.Ctx
	cur    int
}

func newRefRun(p *program.Program) *refRun {
	r := &refRun{p: p, states: make([]program.State, p.NumBlocks())}
	for i := range r.states {
		r.states[i].Rng = bitutil.Spread(p.Seed() ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	return r
}

func (r *refRun) next() program.Event {
	b, st := &r.p.Blocks()[r.cur], &r.states[r.cur]
	o := b.Model.Outcome(st, r.ctx)
	bit := uint64(0)
	if o {
		bit = 1
	}
	st.Execs++
	st.Local = st.Local<<1 | bit
	r.ctx.Hist = r.ctx.Hist<<1 | bit
	r.cur = r.p.Target(r.cur, o)
	return program.Event{Addr: b.Addr, Taken: o, BlockID: b.ID, Uops: b.Uops, MemUops: b.MemUops, FPUops: b.FPUops}
}

// checkStream decodes n branches of q through NextBlock, in blocks whose
// sizes cycle through sizes, and wants the events p's models produce.
func checkStream(t testing.TB, what string, p, q *program.Program, n int, sizes []int) {
	t.Helper()
	ref, run := newRefRun(p), q.NewRun()
	buf := make([]program.Event, 0, 4096)
	for done, k := 0, 0; done < n; k++ {
		buf = buf[:min(sizes[k%len(sizes)], n-done)]
		if got := run.NextBlock(buf); got != len(buf) {
			t.Fatalf("%s: NextBlock decoded %d of %d events at branch %d", what, got, len(buf), done)
		}
		for i := range buf {
			if want := ref.next(); buf[i] != want {
				t.Fatalf("%s: branch %d: got %+v, want %+v", what, done+i, buf[i], want)
			}
		}
		done += len(buf)
		if run.Step() != uint64(done) {
			t.Fatalf("%s: Step() = %d after %d branches", what, run.Step(), done)
		}
	}
}

// wantExhausted checks that a replay-form program's Run panics, naming
// the exhaustion, on the branch after its last outcome.
func wantExhausted(t *testing.T, q *program.Program, n int) {
	t.Helper()
	run := q.NewRun()
	run.NextBlock(make([]program.Event, n))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exhausted") {
			t.Fatalf("decoding branch %d of a %d-branch replay: panic %v, want one naming the exhaustion", n+1, n, r)
		}
	}()
	run.NextBlock(make([]program.Event, 1))
}

// A synthetic Run refills its bitmap in chunks of 1,024 branches, so
// the window below crosses four chunk boundaries and ends mid-chunk, and
// the block sizes put block boundaries on, next to and far from chunk
// boundaries. On every benchmark the synthetic Run, its materialized
// replay form and its recorded trace all yield the model-driven stream.
func TestStreamMatchesModelsOnEveryBenchmark(t *testing.T) {
	const n = 4*1024 + 517
	sizes := [][]int{{256}, {1, 7, 64, 1000, 1023, 1025, 3}}
	for _, name := range program.Names() {
		p := program.MustLoad(name)
		for _, s := range sizes {
			checkStream(t, name+" synthetic", p, p, n, s)
		}
		m := p.Materialize(n)
		if !m.IsReplay() || m.TraceEvents() != n || m.Name != p.Name || m.Suite != p.Suite {
			t.Fatalf("%s: materialized program is %v/%s/%s with %d events", name, m.IsReplay(), m.Name, m.Suite, m.TraceEvents())
		}
		checkStream(t, name+" materialized", p, m, n, sizes[1])
		wantExhausted(t, m, n)
	}
	for _, name := range []string{"gcc", "unzip", "tpcc"} {
		p := program.MustLoad(name)
		q := roundTrip(t, p, n)
		checkStream(t, name+" trace", p, q, n, sizes[1])
		wantExhausted(t, q, n)
	}
}

// roundTrip records n branches of p and reads the trace back.
func roundTrip(t testing.TB, p *program.Program, n int) *program.Program {
	t.Helper()
	var b bytes.Buffer
	if err := trace.Record(p, 0, n, &b); err != nil {
		t.Fatal(err)
	}
	q, err := trace.Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// A materialized program shares its source's CFG, so its footprint is
// the source's blocks plus one bit per branch.
func TestMaterializeKeepsOneBitPerBranch(t *testing.T) {
	p := program.MustLoad("gcc")
	for _, n := range []int{1, 64, 65, 150_000} {
		m := p.Materialize(n)
		if got, want := m.DecodedBytes(), p.DecodedBytes()+(n+63)/64*8; got != want {
			t.Errorf("Materialize(%d).DecodedBytes() = %d, want %d", n, got, want)
		}
		if &m.Blocks()[0] != &p.Blocks()[0] {
			t.Errorf("Materialize(%d) copied the CFG", n)
		}
	}
	if err := p.Materialize(1000).Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzStreamEquivalence generates a program from a fuzzed spec and
// checks its synthetic Run, its materialized form and (when roundTrip)
// its trace.Record/trace.Read round trip against the model-driven
// reference, over a fuzzed window in fuzzed block sizes.
func FuzzStreamEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, sites uint16, mix uint64, region uint8, window uint16, block uint16, roundTripped bool) {
		spec := program.Spec{Name: "fuzz", Suite: program.SuiteINT00, Seed: seed,
			Sites: 1 + int(sites%3000), RegionSize: int(region), MaxSkip: int(region % 9)}
		w := []*float64{&spec.WBias, &spec.WLoop, &spec.WPattern, &spec.WHistCopy, &spec.WHistParity, &spec.WPhase, &spec.WLocal, &spec.WNoise, &spec.WDeep}
		for k, p := range w {
			*p = float64(mix >> (4 * k) & 15)
		}
		spec.Noise = float64(mix>>40&15) / 64
		p := program.Generate(spec)
		n := 1 + int(window)%8000
		sizes := []int{1 + int(block)%4096, 1 + int(block>>4)%97}
		checkStream(t, "synthetic", p, p, n, sizes)
		checkStream(t, "materialized", p, p.Materialize(n), n, sizes)
		if roundTripped {
			checkStream(t, "trace", p, roundTrip(t, p, n), n, sizes)
		}
	})
}
