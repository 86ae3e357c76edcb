package yags

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration. The solver gives half the budget to the bimodal
// choice table and splits the rest between the two exception caches at
// (tag + 2) bits per entry; the history length tracks the choice-table
// index width, gshare-style.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "yags",
		Desc:    "bimodal choice table with two tagged exception caches (Eden & Mudge)",
		Section: "yags",
		Params: []registry.Param{
			{Name: "choice", Desc: "choice-table entries (2-bit counters)", Default: 8 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "sets", Desc: "exception-cache sets (×2 caches)", Default: 256, Min: 2, Max: 1 << 24, Pow2: true},
			{Name: "ways", Desc: "exception-cache associativity", Default: 4, Min: 1, Max: 16},
			{Name: "tag", Desc: "tag bits per exception entry", Default: 8, Min: 1, Max: 16},
			{Name: "hist", Desc: "global history bits", Default: 13, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["choice"]), registry.Log2(p["sets"]),
				p["ways"], uint(p["tag"]), uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const ways, tag = 4, 8
			choice := registry.ClampPow2(bits/4, 2, 1<<26)
			sets := registry.ClampPow2(bits/2/(2*ways*(tag+2)), 2, 1<<24)
			hist := registry.Clamp(int(registry.Log2(choice)), 1, 63)
			return registry.Params{"choice": choice, "sets": sets, "ways": ways, "tag": tag, "hist": hist}, nil
		},
	})
	core.RegisterLanes[*YAGS]()
}
