package tagged

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration. Table 3 fixes the associativity at 6, the tag at
// 8 bits, and the BOR at 18 bits across every budget, scaling only the
// set count; the solver follows, filling the budget with the largest
// power-of-two set count at (tag + 2) bits per entry — which reproduces
// every published cell exactly.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "tagged gshare",
		Aliases: []string{"tagged-gshare"},
		Desc:    "set-associative tagged pattern table; a tag miss is an implicit agree (the paper's default critic)",
		Critic:  true,
		Section: "tagged-gshare",
		Rank:    4,
		Params: []registry.Param{
			{Name: "sets", Desc: "tag-table sets", Default: 1024, Min: 2, Max: 1 << 24, Pow2: true},
			{Name: "ways", Desc: "associativity", Default: 6, Min: 1, Max: 16},
			{Name: "tag", Desc: "tag bits per entry", Default: 8, Min: 1, Max: 16},
			{Name: "bor", Desc: "branch-outcome-register bits hashed into index and tag", Default: 18, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(registry.Log2(p["sets"]), p["ways"], uint(p["tag"]), uint(p["bor"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const ways, tag, bor = 6, 8, 18
			sets := registry.ClampPow2(bits/(ways*(tag+2)), 2, 1<<24)
			return registry.Params{"sets": sets, "ways": ways, "tag": tag, "bor": bor}, nil
		},
		BORLen: func(p registry.Params) int { return p["bor"] },
	})
	core.RegisterTaggedLanes[*Gshare]()
}
