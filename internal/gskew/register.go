package gskew

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration: 2Bc-gskew spends 2 bits per entry across four
// equally sized tables (BIM, G0, G1, META), with the history length
// tracking the per-table index width — the Table 3 pattern, which the
// solver therefore reproduces exactly at the published budgets.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "2Bc-gskew",
		Aliases: []string{"gskew"},
		Desc:    "de-aliased four-table hybrid (BIM + two skewed gshare tables + META; Seznec & Michaud, EV8)",
		Section: "gskew",
		Rank:    3,
		Params: []registry.Param{
			{Name: "entries", Desc: "entries per table (×4 tables of 2-bit counters)", Default: 8 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "hist", Desc: "global history bits", Default: 13, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["entries"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			entries := registry.ClampPow2(bits/8, 2, 1<<26)
			hist := registry.Clamp(int(registry.Log2(entries)), 1, 63)
			return registry.Params{"entries": entries, "hist": hist}, nil
		},
	})
	core.RegisterLanes[*Gskew]()
}
