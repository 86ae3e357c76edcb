package bimodal

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration: the classic Smith predictor, reachable as a
// baseline prophet now that the construction layer is registry-driven.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "bimodal",
		Desc:    "per-address table of saturating counters (Smith); no history correlation",
		Section: "bimodal",
		Params: []registry.Param{
			{Name: "entries", Desc: "counter-table entries", Default: 16 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "ctr", Desc: "counter width in bits", Default: 2, Min: 1, Max: 8},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["entries"]), uint(p["ctr"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const ctr = 2
			entries := registry.ClampPow2(bits/ctr, 2, 1<<26)
			return registry.Params{"entries": entries, "ctr": ctr}, nil
		},
		// Address-indexed only: no BOR bits are read as a critic.
		BORLen: func(p registry.Params) int { return 0 },
	})
	core.RegisterLanes[*Bimodal]()
}
