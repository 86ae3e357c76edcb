package tournament

import (
	"prophetcritic/internal/core"
	"prophetcritic/internal/gshare"
	"prophetcritic/internal/local"
	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"
)

// Self-registration: the Alpha 21264-style tournament — a global gshare
// component, a local PAg component, and an address-indexed chooser
// (McFarling's original selector). The solver splits the budget half /
// three-eighths / one-eighth across the three structures, each filled
// with its largest fitting power-of-two geometry.
func init() {
	registry.Register(registry.Descriptor{
		Name:    "tournament",
		Desc:    "McFarling selection hybrid: gshare + local PAg components with a chooser table",
		Section: "tournament",
		Params: []registry.Param{
			{Name: "gentries", Desc: "gshare pattern-table entries", Default: 8 << 10, Min: 2, Max: 1 << 26, Pow2: true},
			{Name: "ghist", Desc: "gshare global history bits", Default: 13, Min: 1, Max: 63},
			{Name: "lht", Desc: "local-history registers", Default: 1024, Min: 2, Max: 1 << 22, Pow2: true},
			{Name: "lhist", Desc: "local history bits", Default: 12, Min: 1, Max: 24},
			{Name: "chooser", Desc: "chooser entries (2-bit counters, address-indexed)", Default: 4096, Min: 2, Max: 1 << 24, Pow2: true},
		},
		New: func(p registry.Params) (predictor.Predictor, error) {
			g := gshare.New(registry.Log2(p["gentries"]), uint(p["ghist"]))
			l := local.New(registry.Log2(p["lht"]), uint(p["lhist"]))
			return New(g, l, registry.Log2(p["chooser"]), false, 0), nil
		},
		SolveBudget: func(bits int) (registry.Params, error) {
			gentries := registry.ClampPow2(bits/4, 2, 1<<26)
			ghist := registry.Clamp(int(registry.Log2(gentries)), 1, 63)
			// The local component's share is balanced by the local
			// family's own solver.
			lp, err := registry.MustLookup("local").SolveBudget(3 * bits / 8)
			if err != nil {
				return nil, err
			}
			chooser := registry.ClampPow2(bits/16, 2, 1<<24)
			return registry.Params{
				"gentries": gentries, "ghist": ghist,
				"lht": lp["lht"], "lhist": lp["hist"], "chooser": chooser,
			}, nil
		},
		// Only the gshare component reads global history (the chooser is
		// address-indexed), so that is the critic-BOR reach.
		BORLen: func(p registry.Params) int { return p["ghist"] },
	})
	core.RegisterLanes[*Tournament]()
}
