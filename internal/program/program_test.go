package program

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, name := range Names() {
		p := MustLoad(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := MustLoad("gcc")
	b := MustLoad("gcc")
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatal("regeneration changed block count")
	}
	ra, rb := a.NewRun(), b.NewRun()
	for i := 0; i < 20000; i++ {
		ea, eb := ra.Next(), rb.Next()
		if ea != eb {
			t.Fatalf("step %d: runs diverged: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestRunsOfSameProgramIndependent(t *testing.T) {
	p := MustLoad("gzip")
	r1 := p.NewRun()
	for i := 0; i < 5000; i++ {
		r1.Next()
	}
	// A fresh run must restart from scratch, not continue r1's state.
	r2 := p.NewRun()
	r3 := p.NewRun()
	for i := 0; i < 1000; i++ {
		if r2.Next() != r3.Next() {
			t.Fatal("fresh runs must be identical")
		}
	}
}

func TestWalkMatchesCommittedPath(t *testing.T) {
	// Following the *actual* outcomes via Walk must visit exactly the
	// committed branch addresses.
	p := MustLoad("parser")
	r := p.NewRun()
	prev := r.CurrentAddr()
	ev := r.Next()
	if ev.Addr != prev {
		t.Fatal("CurrentAddr must be the next commit address")
	}
	for i := 0; i < 10000; i++ {
		next, ok := p.Walk(ev.Addr, ev.Taken)
		if !ok {
			t.Fatalf("walk dead-ended at %#x", ev.Addr)
		}
		ev2 := r.Next()
		if ev2.Addr != next {
			t.Fatalf("step %d: walk said %#x, execution went to %#x", i, next, ev2.Addr)
		}
		ev = ev2
	}
}

func TestWalkIsPure(t *testing.T) {
	p := MustLoad("gzip")
	a1, ok1 := p.Walk(addrBase, true)
	for i := 0; i < 100; i++ {
		p.Walk(addrBase, true)
		p.Walk(addrBase, false)
	}
	a2, ok2 := p.Walk(addrBase, true)
	if a1 != a2 || ok1 != ok2 {
		t.Fatal("Walk must be side-effect free")
	}
}

func TestWalkRejectsBogusAddresses(t *testing.T) {
	p := MustLoad("gzip")
	for _, addr := range []uint64{0, addrBase - 16, addrBase + 7, addrBase + uint64(p.NumBlocks())*addrStride} {
		if _, ok := p.Walk(addr, true); ok {
			t.Errorf("Walk(%#x) should fail", addr)
		}
	}
}

func TestWrongPathDiverges(t *testing.T) {
	// For most branches, the taken and not-taken walks must reach
	// different next branches — otherwise future bits could never carry
	// a wrong-path signature.
	p := MustLoad("gcc")
	diverge := 0
	for _, b := range p.Blocks() {
		t1, _ := p.Walk(b.Addr, true)
		t2, _ := p.Walk(b.Addr, false)
		if t1 != t2 {
			diverge++
		}
	}
	if frac := float64(diverge) / float64(p.NumBlocks()); frac < 0.95 {
		t.Fatalf("only %.0f%% of branches have divergent successors", frac*100)
	}
}

func TestBranchEveryRoughly13Uops(t *testing.T) {
	// Across all suites, the paper states conditional branches occur
	// every ~13 uops; our generator should land in [8, 20].
	totalUops, totalBranches := 0, 0
	for _, name := range Names() {
		p := MustLoad(name)
		r := p.NewRun()
		for i := 0; i < 20000; i++ {
			ev := r.Next()
			totalUops += ev.Uops
			totalBranches++
		}
	}
	avg := float64(totalUops) / float64(totalBranches)
	if avg < 8 || avg > 20 {
		t.Fatalf("average uops per branch = %.1f, want ~13 (8..20)", avg)
	}
}

func TestTakenRateRealistic(t *testing.T) {
	// Dynamic taken rates should be in a plausible range (roughly 40-80%
	// across integer codes; loops push it up).
	for _, name := range []string{"gcc", "tpcc", "facerec", "unzip"} {
		p := MustLoad(name)
		r := p.NewRun()
		taken := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if r.Next().Taken {
				taken++
			}
		}
		rate := float64(taken) / n
		if rate < 0.30 || rate > 0.92 {
			t.Errorf("%s: taken rate %.2f outside [0.30, 0.92]", name, rate)
		}
	}
}

func TestSuiteInventoryMatchesTable1Shape(t *testing.T) {
	suites := Suites()
	if len(suites) != 7 {
		t.Fatalf("want 7 suites (Table 1), got %d", len(suites))
	}
	for _, s := range SuiteOrder {
		if s == SuiteTrace {
			continue // replayed workloads: no static inventory by design
		}
		if len(suites[s]) == 0 {
			t.Errorf("suite %s has no benchmarks", s)
		}
	}
	// SERV has exactly 2 in the paper; we mirror that.
	if len(suites[SuiteSERV]) != 2 {
		t.Errorf("SERV should have 2 benchmarks, got %d", len(suites[SuiteSERV]))
	}
}

func TestSpecByNameErrors(t *testing.T) {
	if _, err := SpecByName("no-such-benchmark"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := Load("no-such-benchmark"); err == nil {
		t.Fatal("Load of unknown benchmark must error")
	}
}

// TestExpand: a workload entry is "all", a suite or one benchmark name.
func TestExpand(t *testing.T) {
	all, err := Expand("all")
	if err != nil || !reflect.DeepEqual(all, Names()) {
		t.Fatalf("Expand(all) = %v, %v", all, err)
	}
	serv, err := Expand(SuiteSERV)
	if err != nil || !reflect.DeepEqual(serv, Suites()[SuiteSERV]) {
		t.Fatalf("Expand(%s) = %v, %v", SuiteSERV, serv, err)
	}
	one, err := Expand("gcc")
	if err != nil || !reflect.DeepEqual(one, []string{"gcc"}) {
		t.Fatalf("Expand(gcc) = %v, %v", one, err)
	}
	for _, bad := range []string{"", "nope", "gcc,unzip"} {
		if _, err := Expand(bad); err == nil {
			t.Errorf("Expand(%q) must error", bad)
		}
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad on unknown benchmark must panic")
		}
	}()
	MustLoad("no-such-benchmark")
}

func TestKindCensusCoversAllBlocks(t *testing.T) {
	p := MustLoad("gcc")
	census := make(map[string]int)
	for _, b := range p.Blocks() {
		census[b.Model.Kind()]++
	}
	total := 0
	for _, n := range census {
		total += n
	}
	if total != p.NumBlocks() {
		t.Fatalf("census covers %d of %d blocks", total, p.NumBlocks())
	}
	if census["hist-copy"] == 0 || census["biased"] == 0 {
		t.Fatal("gcc must contain biased and hist-copy branches")
	}
}

func TestSeedsAreDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, s := range specs {
		if prev, dup := seen[s.Seed]; dup {
			t.Errorf("seed %#x shared by %s and %s", s.Seed, prev, s.Name)
		}
		seen[s.Seed] = s.Name
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	p := &Program{Name: "empty"}
	if p.Validate() == nil {
		t.Fatal("empty program must fail validation")
	}
	bad := &Program{Name: "bad", blocks: []Block{{ID: 0, Uops: 3, Addr: addrBase, Model: Biased{P: 0.5}, TakenTo: 5, NotTakenTo: 0}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range target must fail validation")
	}
	noUops := &Program{Name: "bad2", blocks: []Block{{ID: 0, Uops: 0, Addr: addrBase, Model: Biased{P: 0.5}}}}
	if noUops.Validate() == nil {
		t.Fatal("zero-uop block must fail validation")
	}
	noModel := &Program{Name: "bad3", blocks: []Block{{ID: 0, Uops: 2, Addr: addrBase}}}
	if noModel.Validate() == nil {
		t.Fatal("model-less block must fail validation")
	}
}

// ---- model unit tests ----

func TestLoopModel(t *testing.T) {
	m := Loop{Trip: 4}
	var st State
	ctx := Ctx{}
	got := ""
	for i := 0; i < 8; i++ {
		if m.Outcome(&st, ctx) {
			got += "T"
		} else {
			got += "N"
		}
		st.Execs++
	}
	if got != "TTTNTTTN" {
		t.Fatalf("Loop(4) = %s, want TTTNTTTN", got)
	}
}

func TestLoopJitterRedraws(t *testing.T) {
	m := Loop{Trip: 8, Jitter: 2}
	st := State{Rng: 12345}
	ctx := Ctx{}
	exits := 0
	for i := 0; i < 1000; i++ {
		if !m.Outcome(&st, ctx) {
			exits++
		}
		st.Execs++
	}
	if exits < 80 || exits > 180 {
		t.Fatalf("jittered Loop(8±2) exits = %d over 1000, want ~125", exits)
	}
}

func TestPatternModel(t *testing.T) {
	m := Pattern{Bits: 0b101, Period: 3}
	var st State
	want := "TNTTNTTNT" // bit i of 101 for i mod 3: 1,0,1 repeating
	got := ""
	for i := 0; i < 9; i++ {
		if m.Outcome(&st, Ctx{}) {
			got += "T"
		} else {
			got += "N"
		}
		st.Execs++
	}
	if got != want {
		t.Fatalf("Pattern = %s, want %s", got, want)
	}
}

func TestHistCopyModel(t *testing.T) {
	m := HistCopy{Depth: 3}
	var st State
	// History ...101: bit 2 (depth 3) = 1 -> taken.
	if !m.Outcome(&st, Ctx{Hist: 0b100}) {
		t.Fatal("HistCopy should copy the bit at depth")
	}
	inv := HistCopy{Depth: 3, Invert: true}
	if inv.Outcome(&st, Ctx{Hist: 0b100}) {
		t.Fatal("inverted HistCopy should complement the bit")
	}
}

func TestHistParityModel(t *testing.T) {
	m := HistParity{Window: 4}
	var st State
	if !m.Outcome(&st, Ctx{Hist: 0b0111}) {
		t.Fatal("parity of 0111 is odd -> taken")
	}
	if m.Outcome(&st, Ctx{Hist: 0b0110}) {
		t.Fatal("parity of 0110 is even -> not-taken")
	}
}

func TestPhaseModelFlips(t *testing.T) {
	m := Phase{Period: 100, PHigh: 1.0, PLow: 0.0}
	st := State{Rng: 7}
	takenFirst, takenSecond := 0, 0
	for i := 0; i < 100; i++ {
		if m.Outcome(&st, Ctx{}) {
			takenFirst++
		}
		st.Execs++
	}
	for i := 0; i < 100; i++ {
		if m.Outcome(&st, Ctx{}) {
			takenSecond++
		}
		st.Execs++
	}
	if takenFirst != 100 || takenSecond != 0 {
		t.Fatalf("phase flip broken: %d then %d taken", takenFirst, takenSecond)
	}
}

func TestLocalPeriodicSelfCorrelates(t *testing.T) {
	m := LocalPeriodic{LocalDepth: 3, Seed: 0b101}
	var st State
	var outs []bool
	for i := 0; i < 30; i++ {
		o := m.Outcome(&st, Ctx{})
		st.Execs++
		b := uint64(0)
		if o {
			b = 1
		}
		st.Local = st.Local<<1 | b
		outs = append(outs, o)
	}
	// After warmup the sequence must be period-3.
	for i := 10; i < 27; i++ {
		if outs[i] != outs[i+3] {
			t.Fatalf("local periodic sequence not period-3 at %d", i)
		}
	}
}

func TestBiasedRespectsP(t *testing.T) {
	f := func(seed uint64) bool {
		m := Biased{P: 0.8}
		st := State{Rng: seed}
		taken := 0
		for i := 0; i < 2000; i++ {
			if m.Outcome(&st, Ctx{}) {
				taken++
			}
		}
		return taken > 1450 && taken < 1750 // 0.8 ± ~5σ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestModelKinds(t *testing.T) {
	kinds := map[Model]string{
		Biased{}:        "biased",
		Loop{}:          "loop",
		Pattern{}:       "pattern",
		HistCopy{}:      "hist-copy",
		HistParity{}:    "hist-parity",
		Phase{}:         "phase",
		LocalPeriodic{}: "local-periodic",
	}
	for m, want := range kinds {
		if m.Kind() != want {
			t.Errorf("%T.Kind() = %q, want %q", m, m.Kind(), want)
		}
	}
}

func TestStringMentionsNameAndSuite(t *testing.T) {
	p := MustLoad("tpcc")
	s := p.String()
	if s == "" || p.Suite != SuiteSERV || p.Name != "tpcc" {
		t.Fatalf("program identity wrong: %q", s)
	}
	if p.Seed() != 0x79cc {
		t.Fatal("seed accessor wrong")
	}
}

func TestLoadIsMemoized(t *testing.T) {
	a, err := Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Load must return the same immutable *Program per name")
	}
}

func TestLoadConcurrentSameProgram(t *testing.T) {
	const workers = 16
	got := make([]*Program, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := Load("verilog")
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = p
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent Loads must converge on one Program instance")
		}
	}
}

func TestLoadUnknownNameError(t *testing.T) {
	_, err := Load("definitely-not-a-benchmark")
	if err == nil {
		t.Fatal("Load of unknown benchmark must error")
	}
	if !strings.Contains(err.Error(), "definitely-not-a-benchmark") {
		t.Fatalf("error should name the missing benchmark: %v", err)
	}
}

// Run.Next is inside the simulator's per-branch loop; it must not
// allocate.
func TestRunNextZeroAlloc(t *testing.T) {
	p := MustLoad("gcc")
	r := p.NewRun()
	for i := 0; i < 1000; i++ {
		r.Next()
	}
	if allocs := testing.AllocsPerRun(5000, func() { r.Next() }); allocs != 0 {
		t.Errorf("Run.Next allocates %.1f times per branch, want 0", allocs)
	}
}

// NextBlock is defined as exactly len(buf) consecutive Next calls; the
// block-batched stepping engine depends on the two decoders producing
// the same committed stream regardless of block-boundary placement.
func TestNextBlockMatchesNext(t *testing.T) {
	ref := MustLoad("gcc").NewRun()
	blk := MustLoad("gcc").NewRun()
	buf := make([]Event, 0)
	for _, size := range []int{1, 7, 64, 257} {
		buf = append(buf[:0], make([]Event, size)...)
		n := blk.NextBlock(buf)
		if n != size {
			t.Fatalf("NextBlock(%d) on a synthetic program decoded %d events", size, n)
		}
		for i := 0; i < n; i++ {
			if want := ref.Next(); buf[i] != want {
				t.Fatalf("block size %d event %d: got %+v, want %+v", size, i, buf[i], want)
			}
		}
		if blk.Step() != ref.Step() {
			t.Fatalf("cursors diverged: block run at %d, reference at %d", blk.Step(), ref.Step())
		}
	}
}

// A replay that reaches a branch with no recorded successor stops the
// block short instead of decoding past the trace; the run is left in
// the same past-the-end state a Next-driven caller observes.
func TestNextBlockStopsAtMissingEdge(t *testing.T) {
	p := &Program{Name: "dead-end", blocks: []Block{
		{ID: 0, Uops: 2, Addr: addrBase, Model: Biased{P: 1}, TakenTo: -1, NotTakenTo: 0},
	}}
	r := p.NewRun()
	buf := make([]Event, 8)
	if n := r.NextBlock(buf); n != 1 {
		t.Fatalf("decoded %d events past a missing successor edge, want 1", n)
	}
	if n := r.NextBlock(buf); n != 0 {
		t.Fatalf("second NextBlock decoded %d events, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CurrentAddr after a short block must panic like the Next-driven path")
		}
	}()
	r.CurrentAddr()
}

// NextBlock feeds the hot block loop; like Next it must not allocate.
func TestNextBlockZeroAlloc(t *testing.T) {
	p := MustLoad("gcc")
	r := p.NewRun()
	buf := make([]Event, 256)
	if allocs := testing.AllocsPerRun(200, func() { r.NextBlock(buf) }); allocs != 0 {
		t.Errorf("Run.NextBlock allocates %.1f times per block, want 0", allocs)
	}
}
