package perceptron

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// budgetCost is the Table 3 accounting: hist weights plus a bias weight,
// WeightBits bits each, per perceptron.
func budgetCost(hist int) int { return (hist + 1) * WeightBits }

// histLadder is the published history-length column of Table 3 (budgets
// in bits). History grows irregularly with budget, so off-table budgets
// take the nearest published value and the ends extrapolate ~5 bits per
// halving / ~10 per doubling, continuing the table's trend.
var histLadder = [][2]int{
	{2 * 8192, 17}, {4 * 8192, 24}, {8 * 8192, 28}, {16 * 8192, 47}, {32 * 8192, 57},
}

func init() {
	registry.Register(registry.Descriptor{
		Name:    "perceptron",
		Desc:    "pool of perceptrons over ±1-encoded global history (Jiménez & Lin)",
		Section: "perceptron",
		Rank:    2,
		Params: []registry.Param{
			{Name: "perceptrons", Desc: "perceptron pool size", Default: 282, Min: 1, Max: 1 << 20},
			{Name: "hist", Desc: "history bits (inputs per perceptron)", Default: 28, Min: 1, Max: 63},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			return New(p["perceptrons"], uint(p["hist"])), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			hist := registry.Ladder(bits, histLadder, 5, 10, 1, 63)
			pool := registry.Clamp(bits/budgetCost(hist), 1, 1<<20)
			return registry.Params{"perceptrons": pool, "hist": hist}, nil
		},
	})
	core.RegisterLanes[*Perceptron]()
}
