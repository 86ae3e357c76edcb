package program

import (
	"fmt"
	"sort"
	"sync"
)

// Suite names, matching Table 1 of the paper.
const (
	SuiteINT00 = "INT00"
	SuiteFP00  = "FP00"
	SuiteWEB   = "WEB"
	SuiteMM    = "MM"
	SuitePROD  = "PROD"
	SuiteSERV  = "SERV"
	SuiteWS    = "WS"
)

// SuiteOrder is the presentation order used by the paper's figures.
// SuiteTrace (replayed external workloads) sorts last; suites with no
// benchmarks in a result set are skipped by the formatters.
var SuiteOrder = []string{SuiteINT00, SuiteFP00, SuiteWEB, SuiteMM, SuitePROD, SuiteSERV, SuiteWS, SuiteTrace}

// specs defines the synthetic stand-ins for the paper's 108 benchmarks.
//
// Calibration principles (see DESIGN.md §3):
//
//   - The bulk of each program is near-deterministic (loops, shallow
//     history copies, biased checks) so contexts recur and predictors
//     reach realistic 90-97% accuracy.
//   - WNoise branches inject entropy into the outcome stream; the WDeep
//     class copies history bits at a benchmark-specific depth band, which
//     makes those branches carry that entropy *deterministically* — they
//     are the prophet's persistent blind spot (depth beyond its history)
//     and the critic's opportunity (depth within the BOR's surviving
//     history window, 18-futurebits for the tagged gshare critic).
//   - The deep band therefore sets each benchmark's future-bit
//     personality from Figure 5: depth<=10 keeps improving through 8
//     future bits (msvc7), depth 12-14 peaks around 4 (flash), depth
//     15-17 benefits only from the first future bit and then degrades
//     (tpcc, premiere).
//   - HistParity branches are linearly inseparable: permanent blind spot
//     of perceptron prophets, fixable by table-based critics — the
//     dominant effect in the perceptron + tagged gshare pairing.
//
// The names reuse the paper's where it names them (gcc, unzip, premiere,
// msvc7, flash, facerec, tpcc).
var specs = []Spec{
	// ----- SPECint2K: mid-size code, correlation-rich, some noise.
	{Name: "gcc", Suite: SuiteINT00, Seed: 0x67cc, Sites: 1600, AvgUops: 11,
		WBias: 0.28, WLoop: 0.22, WPattern: 0.01, WHistCopy: 0.24, WHistParity: 0.04, WLocal: 0.01, WNoise: 0.01, WDeep: 0.13,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 6},
	{Name: "gzip", Suite: SuiteINT00, Seed: 0x675a, Sites: 420, AvgUops: 12,
		WBias: 0.30, WLoop: 0.26, WHistCopy: 0.26, WHistParity: 0.02, WNoise: 0.01, WDeep: 0.11,
		DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "crafty", Suite: SuiteINT00, Seed: 0xc4af, Sites: 1100, AvgUops: 12,
		WBias: 0.26, WLoop: 0.20, WPattern: 0.01, WHistCopy: 0.24, WHistParity: 0.05, WNoise: 0.01, WDeep: 0.14,
		DeepLo: 13, DeepHi: 16, Noise: 0.01, MaxSkip: 6},
	{Name: "parser", Suite: SuiteINT00, Seed: 0x9a45, Sites: 800, AvgUops: 11,
		WBias: 0.28, WLoop: 0.22, WHistCopy: 0.24, WHistParity: 0.03, WPhase: 0.01, WNoise: 0.01, WDeep: 0.13,
		DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "vortex", Suite: SuiteINT00, Seed: 0x0e73, Sites: 1300, AvgUops: 13,
		WBias: 0.40, WLoop: 0.24, WHistCopy: 0.20, WPattern: 0.01, WLocal: 0.01, WNoise: 0.01, WDeep: 0.11,
		BiasLo: 0.96, BiasHi: 0.998, DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "twolf", Suite: SuiteINT00, Seed: 0x2f01, Sites: 700, AvgUops: 12,
		WBias: 0.24, WLoop: 0.18, WHistCopy: 0.24, WHistParity: 0.05, WPhase: 0.01, WNoise: 0.03, WDeep: 0.14,
		DeepLo: 13, DeepHi: 16, Noise: 0.01},

	// ----- SPECfp2K: loop-dominated, very predictable, FP-heavy,
	// insensitive to future bits (facerec's Figure 5 personality).
	{Name: "facerec", Suite: SuiteFP00, Seed: 0xface, Sites: 260, AvgUops: 18, FPFrac: 0.4,
		WBias: 0.28, WLoop: 0.52, WPattern: 0.01, WHistCopy: 0.10, WNoise: 0.01, WDeep: 0.04,
		BiasLo: 0.97, BiasHi: 0.999, LoopLo: 3, LoopHi: 6, DeepLo: 13, DeepHi: 15, Noise: 0.00},
	{Name: "ammp", Suite: SuiteFP00, Seed: 0xa339, Sites: 320, AvgUops: 17, FPFrac: 0.45,
		WBias: 0.30, WLoop: 0.48, WPattern: 0.01, WHistCopy: 0.12, WNoise: 0.01, WDeep: 0.02,
		BiasLo: 0.96, BiasHi: 0.998, LoopLo: 3, LoopHi: 6, Noise: 0.00},
	{Name: "swim", Suite: SuiteFP00, Seed: 0x5317, Sites: 140, AvgUops: 20, FPFrac: 0.5,
		WBias: 0.25, WLoop: 0.62, WPattern: 0.01, WHistCopy: 0.07, WNoise: 0.01,
		BiasLo: 0.97, BiasHi: 0.999, LoopLo: 3, LoopHi: 6},
	{Name: "mgrid", Suite: SuiteFP00, Seed: 0x36e1, Sites: 160, AvgUops: 19, FPFrac: 0.5,
		WBias: 0.26, WLoop: 0.58, WPattern: 0.01, WHistCopy: 0.08, WNoise: 0.01,
		BiasLo: 0.97, BiasHi: 0.999, LoopLo: 3, LoopHi: 6},
	{Name: "art", Suite: SuiteFP00, Seed: 0xa127, Sites: 180, AvgUops: 16, FPFrac: 0.4,
		WBias: 0.30, WLoop: 0.46, WHistCopy: 0.14, WNoise: 0.01, WDeep: 0.05,
		LoopLo: 3, LoopHi: 6, DeepLo: 13, DeepHi: 15, Noise: 0.01},

	// ----- Internet: large footprints, phases, moderate noise.
	{Name: "specjbb", Suite: SuiteWEB, Seed: 0x1bb5, Sites: 1400, AvgUops: 12,
		WBias: 0.28, WLoop: 0.18, WHistCopy: 0.22, WHistParity: 0.03, WPhase: 0.02, WNoise: 0.02, WDeep: 0.16,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 6},
	{Name: "webmark", Suite: SuiteWEB, Seed: 0x3eb1, Sites: 1600, AvgUops: 12,
		WBias: 0.30, WLoop: 0.16, WHistCopy: 0.22, WHistParity: 0.02, WPhase: 0.02, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 13, DeepHi: 16, Noise: 0.01, MaxSkip: 6},
	{Name: "webserver", Suite: SuiteWEB, Seed: 0x3eb2, Sites: 1100, AvgUops: 11,
		WBias: 0.32, WLoop: 0.20, WHistCopy: 0.22, WPhase: 0.01, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "javascript", Suite: SuiteWEB, Seed: 0x3eb3, Sites: 900, AvgUops: 10,
		WBias: 0.28, WLoop: 0.18, WPattern: 0.01, WHistCopy: 0.24, WHistParity: 0.04, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 13, DeepHi: 15, Noise: 0.01},

	// ----- Multimedia: kernels with patterns; flash peaks around 4
	// future bits (deep band 12-14: visible while 18-fb >= 14).
	{Name: "flash", Suite: SuiteMM, Seed: 0xf1a5, Sites: 760, AvgUops: 12,
		WBias: 0.26, WLoop: 0.20, WPattern: 0.01, WHistCopy: 0.24, WHistParity: 0.02, WNoise: 0.02, WDeep: 0.18,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 2},
	{Name: "mpeg", Suite: SuiteMM, Seed: 0x9be6, Sites: 380, AvgUops: 15, FPFrac: 0.2,
		WBias: 0.28, WLoop: 0.38, WPattern: 0.01, WHistCopy: 0.16, WNoise: 0.01, WDeep: 0.09,
		LoopLo: 3, LoopHi: 6, DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "speech", Suite: SuiteMM, Seed: 0x53ec, Sites: 520, AvgUops: 13, FPFrac: 0.25,
		WBias: 0.28, WLoop: 0.26, WPattern: 0.01, WHistCopy: 0.20, WHistParity: 0.03, WNoise: 0.01, WDeep: 0.13,
		DeepLo: 13, DeepHi: 15, Noise: 0.01},
	{Name: "quake", Suite: SuiteMM, Seed: 0x40ae, Sites: 640, AvgUops: 14, FPFrac: 0.3,
		WBias: 0.30, WLoop: 0.28, WPattern: 0.01, WHistCopy: 0.18, WNoise: 0.02, WDeep: 0.14,
		LoopLo: 3, LoopHi: 6, DeepLo: 13, DeepHi: 15, Noise: 0.01},

	// ----- Productivity: big footprints. premiere gets most of its
	// benefit from the first future bit (deep band 15-17); msvc7 keeps
	// improving to ~8 future bits (deep band 9-10).
	{Name: "premiere", Suite: SuitePROD, Seed: 0x93e3, Sites: 2000, AvgUops: 12,
		WBias: 0.30, WLoop: 0.18, WHistCopy: 0.22, WPattern: 0.01, WLocal: 0.01, WNoise: 0.01, WDeep: 0.22,
		BiasLo: 0.96, BiasHi: 0.998, DeepLo: 15, DeepHi: 17, Noise: 0.01, MaxSkip: 3},
	{Name: "msvc7", Suite: SuitePROD, Seed: 0x35c7, Sites: 1800, AvgUops: 11,
		WBias: 0.26, WLoop: 0.18, WHistCopy: 0.22, WHistParity: 0.03, WPhase: 0.01, WLocal: 0.01, WNoise: 0.02, WDeep: 0.20,
		DeepLo: 13, DeepHi: 14, Noise: 0.01, MaxSkip: 8},
	{Name: "winstone", Suite: SuitePROD, Seed: 0x3157, Sites: 1500, AvgUops: 12,
		WBias: 0.30, WLoop: 0.18, WHistCopy: 0.20, WPattern: 0.01, WPhase: 0.02, WNoise: 0.03, WDeep: 0.18,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 5},
	{Name: "sysmark", Suite: SuitePROD, Seed: 0x5153, Sites: 1300, AvgUops: 12,
		WBias: 0.32, WLoop: 0.20, WHistCopy: 0.18, WPhase: 0.02, WNoise: 0.03, WDeep: 0.14,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 5},

	// ----- Server: hard and noisy; tpcc's deep band sits at the very
	// edge of the BOR (15-17), so future bits beyond the first displace
	// exactly the history it needs — its Figure 5 personality.
	{Name: "tpcc", Suite: SuiteSERV, Seed: 0x79cc, Sites: 1400, AvgUops: 11,
		WBias: 0.24, WLoop: 0.14, WHistCopy: 0.20, WHistParity: 0.02, WPhase: 0.01, WNoise: 0.04, WDeep: 0.22,
		DeepLo: 15, DeepHi: 17, Noise: 0.01, MaxSkip: 3},
	{Name: "timesten", Suite: SuiteSERV, Seed: 0x7137, Sites: 1100, AvgUops: 11,
		WBias: 0.28, WLoop: 0.16, WHistCopy: 0.20, WPhase: 0.01, WNoise: 0.04, WDeep: 0.22,
		DeepLo: 14, DeepHi: 17, Noise: 0.01, MaxSkip: 3},

	// ----- Workstation: CAD/verilog — and unzip, Figure 5's monotone
	// improver: shallow deep band (always inside the surviving BOR
	// history) plus parity and noise, so extra future bits keep helping
	// (denoised prophecy bits concentrate the critic's contexts) and
	// never displace needed history.
	{Name: "unzip", Suite: SuiteWS, Seed: 0x0231, Sites: 1000, AvgUops: 12,
		WBias: 0.22, WLoop: 0.16, WHistCopy: 0.26, WHistParity: 0.07, WLocal: 0.01, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 4, DeepHi: 6, ParityLo: 3, ParityHi: 5, Noise: 0.01, MaxSkip: 10},
	{Name: "cad", Suite: SuiteWS, Seed: 0xcad0, Sites: 1400, AvgUops: 13,
		WBias: 0.28, WLoop: 0.22, WHistCopy: 0.22, WHistParity: 0.04, WLocal: 0.01, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 6},
	{Name: "verilog", Suite: SuiteWS, Seed: 0x0e51, Sites: 1200, AvgUops: 12,
		WBias: 0.26, WLoop: 0.20, WPattern: 0.01, WHistCopy: 0.24, WHistParity: 0.04, WNoise: 0.02, WDeep: 0.14,
		DeepLo: 13, DeepHi: 15, Noise: 0.01, MaxSkip: 6},
	{Name: "render", Suite: SuiteWS, Seed: 0x4e4d, Sites: 900, AvgUops: 15, FPFrac: 0.3,
		WBias: 0.30, WLoop: 0.30, WPattern: 0.01, WHistCopy: 0.18, WNoise: 0.02, WDeep: 0.11,
		LoopLo: 3, LoopHi: 6, DeepLo: 13, DeepHi: 15, Noise: 0.01},
}

// Names returns all benchmark names in definition order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Suites returns the benchmarks grouped by suite, keyed in SuiteOrder.
func Suites() map[string][]string {
	m := make(map[string][]string)
	for _, s := range specs {
		m[s.Suite] = append(m[s.Suite], s.Name)
	}
	for _, v := range m {
		sort.Strings(v)
	}
	return m
}

// SpecByName returns the benchmark spec for a name.
func SpecByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("program: unknown benchmark %q", name)
}

// Expand resolves one workload entry to benchmark names: "all" (every
// benchmark, in definition order), a suite name (its benchmarks, as
// Suites lists them) or one benchmark name.
func Expand(entry string) ([]string, error) {
	if entry == "all" {
		return Names(), nil
	}
	if names, ok := Suites()[entry]; ok {
		return names, nil
	}
	if _, err := SpecByName(entry); err != nil {
		return nil, fmt.Errorf("program: unknown benchmark or suite %q", entry)
	}
	return []string{entry}, nil
}

// loadCache memoizes generated benchmark programs by name. A Program is
// immutable once generated (all mutable run state lives in Run), so one
// instance per process can be shared by every goroutine of every
// experiment; before memoization each figure regenerated every program
// once per goroutine per configuration.
var loadCache sync.Map // benchmark name -> *Program

// Load returns the named benchmark, generating it on first use and
// returning the same immutable *Program on every subsequent call.
// Callers needing mutable execution state use Program.NewRun, which is
// independent per caller.
func Load(name string) (*Program, error) {
	if p, ok := loadCache.Load(name); ok {
		return p.(*Program), nil
	}
	s, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	// Concurrent first loads may both generate; LoadOrStore keeps one.
	// Generation is a pure function of the spec, so the duplicates are
	// identical and the loser is simply garbage collected.
	p, _ := loadCache.LoadOrStore(name, Generate(s))
	return p.(*Program), nil
}

// MustLoad is Load that panics on unknown names; experiment tables are
// static so failure is a programming error.
func MustLoad(name string) *Program {
	p, err := Load(name)
	if err != nil {
		panic(err)
	}
	return p
}

// AllSpecs returns every benchmark spec.
func AllSpecs() []Spec { return append([]Spec(nil), specs...) }
