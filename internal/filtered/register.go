package filtered

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/perceptron"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// histLadder is the published perceptron-history column of the filtered
// perceptron rows of Table 3 (budgets in bits) — one budget step behind
// the plain perceptron's ladder, since a quarter-ish of the budget goes
// to the tag filter.
var histLadder = [][2]int{
	{2 * 8192, 13}, {4 * 8192, 17}, {8 * 8192, 24}, {16 * 8192, 28}, {32 * 8192, 47},
}

// Self-registration. The filter always hashes fhist BOR bits (18 in
// every Table 3 cell — the promoted FilterHist parameter), while the
// perceptron reads hist bits; the critic's BOR must cover both, so the
// registry reports max(hist, fhist) as the BOR length, matching the
// published BOR column (18, 18, 24, 28, 47).
func init() {
	registry.Register(registry.Descriptor{
		Name:    "filtered perceptron",
		Aliases: []string{"filtered-perceptron"},
		Desc:    "perceptron gated by an associative tag filter; a filter miss is an implicit agree",
		Critic:  true,
		Section: "filtered-perceptron",
		Rank:    5,
		Params: []registry.Param{
			{Name: "perceptrons", Desc: "perceptron pool size", Default: 163, Min: 1, Max: 1 << 20},
			{Name: "hist", Desc: "perceptron history/BOR bits", Default: 24, Min: 1, Max: 63},
			{Name: "fsets", Desc: "tag-filter sets", Default: 512, Min: 2, Max: 1 << 24, Pow2: true},
			{Name: "fways", Desc: "tag-filter associativity", Default: 3, Min: 1, Max: 16},
			{Name: "tag", Desc: "tag bits per filter entry", Default: 9, Min: 1, Max: 16},
			{Name: "fhist", Desc: "BOR bits hashed by the filter (FilterHist)", Default: 18, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(p["perceptrons"], uint(p["hist"]), registry.Log2(p["fsets"]),
				p["fways"], uint(p["tag"]), uint(p["fhist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			const fways, tag, fhist = 3, 9, 18
			hist := registry.Ladder(bits, histLadder, 4, 10, 1, 63)
			fsets := registry.ClampPow2(bits/(4*fways*tag), 2, 1<<24)
			pool := registry.Clamp((bits-fsets*fways*tag)/((hist+1)*perceptron.WeightBits), 1, 1<<20)
			return registry.Params{
				"perceptrons": pool, "hist": hist,
				"fsets": fsets, "fways": fways, "tag": tag, "fhist": fhist,
			}, nil
		},
		BORLen: func(p registry.Params) int {
			if p["fhist"] > p["hist"] {
				return p["fhist"]
			}
			return p["hist"]
		},
	})
	core.RegisterTaggedLanes[*Perceptron]()
}
