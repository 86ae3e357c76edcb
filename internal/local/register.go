package local

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration. The solver balances the two levels: the deepest
// pattern table whose 2-bit counters fit half the budget sets the
// history length, and the local-history table takes what remains at
// hist bits per register.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "local",
		Aliases: []string{"pag"},
		Desc:    "two-level local-history predictor (PAg): per-branch histories feeding a shared pattern table",
		Section: "local",
		Params: []registry.Param{
			{Name: "lht", Desc: "local-history registers", Default: 1024, Min: 2, Max: 1 << 22, Pow2: true},
			{Name: "hist", Desc: "local history bits (pattern-table index width)", Default: 12, Min: 1, Max: 24},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["lht"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			hist := 1
			for h := 2; h <= 24 && (2<<h) <= bits/2; h++ {
				hist = h
			}
			lht := registry.ClampPow2((bits-(2<<hist))/hist, 2, 1<<22)
			return registry.Params{"lht": lht, "hist": hist}, nil
		},
		// The hist parameter is per-branch local history, not global: as
		// a critic the predictor reads no BOR bits at all, so future
		// bits are rejected at validation instead of panicking at build.
		BORLen: func(p registry.Params) int { return 0 },
	})
	core.RegisterLanes[*Local]()
}
