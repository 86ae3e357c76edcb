package gshare

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration with the predictor registry: schema, constructor,
// and budget solver. Table 3 sizes gshare at 2 bits per entry with the
// history length tracking the index width, so the solver fills the
// budget with the largest power-of-two table and reads index-width
// history — which reproduces every published cell exactly.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "gshare",
		Desc:    "single pattern table of 2-bit counters indexed by address XOR global history (McFarling)",
		Section: "gshare",
		Rank:    1,
		Params: []registry.Param{
			{Name: "entries", Desc: "pattern-table entries (2-bit counters)", Default: 32 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "hist", Desc: "global history bits", Default: 15, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["entries"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			entries := registry.ClampPow2(bits/2, 2, 1<<26)
			hist := registry.Clamp(int(registry.Log2(entries)), 1, 63)
			return registry.Params{"entries": entries, "hist": hist}, nil
		},
	})
	core.RegisterLanes[*Gshare]()
}
