// Package registry is the open predictor-family catalogue behind the
// construction layer. Each predictor package self-registers a Descriptor
// at init time: a canonical name plus aliases, a declarative parameter
// schema (defaults, bounds, power-of-two constraints), a constructor
// from a validated parameter set, a budget solver that picks the largest
// geometry fitting an arbitrary bit budget, and the checkpoint section
// tag the family's Snapshot writes.
//
// The registry is what makes the paper's central claim — "any predictor
// can play the role of prophet or critic" (Section 3) — operational:
// internal/budget resolves specs against it, the service exposes it at
// GET /v1/predictors, `pcsim -list-kinds` prints it, and checkpoint
// restore rebuilds predictors through it. Registering a new family is
// one self-contained register.go; no switch statement anywhere else
// needs to learn about it.
//
// A Descriptor's schema is a contract: any parameter set that passes
// Validate must construct without panicking. Bounds in the schema are
// therefore at least as tight as the constructor's own argument checks,
// which is what lets user-supplied specs (CLI flags, service job specs)
// fail with an error instead of a worker panic.
package registry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"prophetcritic/internal/predictor"
)

// Params is a complete, named parameter assignment for one family. Keys
// are schema parameter names; values are validated against the schema's
// bounds before any constructor sees them.
type Params map[string]int

// Clone returns an independent copy.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Equal reports whether two parameter sets assign the same values.
func (p Params) Equal(q Params) bool {
	if len(p) != len(q) {
		return false
	}
	for k, v := range p {
		if qv, ok := q[k]; !ok || qv != v {
			return false
		}
	}
	return true
}

// Param is one schema entry: a named integer parameter with a default
// and inclusive bounds. Pow2 additionally requires a power of two
// (table geometries that become an index width).
type Param struct {
	Name    string `json:"name"`
	Desc    string `json:"desc"`
	Default int    `json:"default"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Pow2    bool   `json:"pow2,omitempty"`
}

// Descriptor describes one predictor family.
type Descriptor struct {
	// Name is the canonical kind name ("2Bc-gskew", "tagged gshare").
	Name string
	// Aliases are alternative spellings accepted by spec parsers
	// (lookups are case-insensitive in addition).
	Aliases []string
	// Desc is a one-line human description.
	Desc string
	// Critic marks Tagged-capable families: their critiques can be gated
	// behind tag hits (the paper's filtered critic protocol). Any family
	// can still serve as an unfiltered critic.
	Critic bool
	// Section is the checkpoint section tag the family's Snapshot writes
	// first; restore paths use it to verify they are rebuilding the same
	// structure the checkpoint describes.
	Section string
	// Rank orders listings: the Table 3 families keep their published
	// row order (1..5); later registrations sort after them by name.
	Rank int
	// Params is the declarative parameter schema, in display order.
	Params []Param
	// New constructs the family from a complete, validated parameter
	// set. It must not panic for any parameter set Validate accepts.
	New func(p Params) (predictor.Predictor, error)
	// SolveBudget picks the largest configuration fitting a hardware
	// budget of the given size in bits, returning a complete parameter
	// set. It must be deterministic and must not allocate simulator
	// state.
	SolveBudget func(bits int) (Params, error)
	// BORLen, when non-nil, returns the branch-outcome-register length
	// the family consumes as a critic. When nil, the family's "hist"
	// parameter is the global-history reach (0 for families without
	// one). Families whose "hist" parameter is NOT global history — the
	// local predictor's per-branch histories, say — must set the hook so
	// critic validation matches what the built predictor actually reads.
	BORLen func(p Params) int
}

var (
	byName  = map[string]*Descriptor{}
	ordered []*Descriptor
)

// unrankedRank sorts every family without an explicit rank after the
// Table 3 block; ties break by name, so listings are stable regardless
// of package-registration order.
const unrankedRank = 100

// Register adds a family to the registry. It panics on duplicate or
// malformed descriptors: registration happens in package init functions,
// so a failure is a programming error caught by any test of the package.
func Register(d Descriptor) {
	if d.Name == "" || d.New == nil || d.SolveBudget == nil || d.Section == "" {
		panic(fmt.Sprintf("registry: descriptor %q is missing required fields", d.Name))
	}
	if d.Rank == 0 {
		d.Rank = unrankedRank
	}
	for _, p := range d.Params {
		if p.Min > p.Max || p.Default < p.Min || p.Default > p.Max {
			panic(fmt.Sprintf("registry: %s param %q has inconsistent bounds [%d,%d] default %d",
				d.Name, p.Name, p.Min, p.Max, p.Default))
		}
		if p.Pow2 && !isPow2(p.Default) {
			panic(fmt.Sprintf("registry: %s param %q default %d is not a power of two", d.Name, p.Name, p.Default))
		}
	}
	desc := d
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		key := normalize(name)
		if prev, dup := byName[key]; dup {
			panic(fmt.Sprintf("registry: name %q already registered by %s", name, prev.Name))
		}
		byName[key] = &desc
	}
	ordered = append(ordered, &desc)
}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Lookup resolves a kind name or alias, case-insensitively.
func Lookup(name string) (*Descriptor, bool) {
	d, ok := byName[normalize(name)]
	return d, ok
}

// MustLookup is Lookup that panics on unknown names; for callers whose
// kind names are compile-time constants.
func MustLookup(name string) *Descriptor {
	d, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("registry: unknown predictor kind %q", name))
	}
	return d
}

// All returns every registered family: the Table 3 families first in
// published row order, then later registrations by name.
func All() []*Descriptor {
	out := append([]*Descriptor(nil), ordered...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the canonical kind names in All order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.Name
	}
	return names
}

// Param returns the schema entry with the given name.
func (d *Descriptor) Param(name string) (Param, bool) {
	for _, p := range d.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Complete fills schema defaults for every parameter absent from p,
// returning a new complete set. Unknown keys are preserved for Validate
// to reject.
func (d *Descriptor) Complete(p Params) Params {
	out := p.Clone()
	if out == nil {
		out = Params{}
	}
	for _, s := range d.Params {
		if _, ok := out[s.Name]; !ok {
			out[s.Name] = s.Default
		}
	}
	return out
}

// Validate checks a complete parameter set against the schema: no
// unknown names, every value within bounds, powers of two where
// required. A set that passes Validate must construct without panicking.
func (d *Descriptor) Validate(p Params) error {
	for name := range p {
		if _, ok := d.Param(name); !ok {
			return fmt.Errorf("registry: %s has no parameter %q (have %s)", d.Name, name, d.paramNames())
		}
	}
	for _, s := range d.Params {
		v, ok := p[s.Name]
		if !ok {
			return fmt.Errorf("registry: %s is missing parameter %q", d.Name, s.Name)
		}
		if v < s.Min || v > s.Max {
			return fmt.Errorf("registry: %s parameter %s=%d out of range [%d, %d]", d.Name, s.Name, v, s.Min, s.Max)
		}
		if s.Pow2 && !isPow2(v) {
			return fmt.Errorf("registry: %s parameter %s=%d must be a power of two", d.Name, s.Name, v)
		}
	}
	return nil
}

// Build completes, validates, and constructs in one step.
func (d *Descriptor) Build(p Params) (predictor.Predictor, error) {
	p = d.Complete(p)
	if err := d.Validate(p); err != nil {
		return nil, err
	}
	return d.New(p)
}

func (d *Descriptor) paramNames() string {
	names := make([]string, len(d.Params))
	for i, p := range d.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// ---- helpers shared by family solvers ----

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Pow2Floor returns the largest power of two <= v (0 for v < 1).
func Pow2Floor(v int) int {
	if v < 1 {
		return 0
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// Log2 returns log2 of a power of two.
func Log2(v int) uint {
	return uint(bits.TrailingZeros(uint(v)))
}

// Clamp bounds v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampPow2 bounds a power-of-two geometry to [lo, hi] (both powers of
// two), flooring non-power-of-two inputs.
func ClampPow2(v, lo, hi int) int {
	return Clamp(Pow2Floor(v), lo, hi)
}

// Ladder interpolates a Table 3 parameter ladder. steps maps budgets in
// bits (ascending) to published parameter values; budgets between steps
// take the largest step not exceeding them. Outside the table the value
// extrapolates by perHalving below the first step and perDoubling above
// the last, clamped to [min, max] — the paper's ladders grow roughly
// linearly per budget doubling, so the end slopes continue that trend.
func Ladder(bitBudget int, steps [][2]int, perHalving, perDoubling, min, max int) int {
	if len(steps) == 0 {
		panic("registry: empty ladder")
	}
	first, last := steps[0], steps[len(steps)-1]
	if bitBudget < first[0] {
		v := first[1]
		for b := first[0]; b/2 >= 1 && bitBudget < b; b /= 2 {
			v -= perHalving
		}
		return Clamp(v, min, max)
	}
	if bitBudget >= last[0] {
		v := last[1]
		for b := last[0]; bitBudget >= b*2 && b*2 > b; b *= 2 {
			v += perDoubling
		}
		return Clamp(v, min, max)
	}
	v := first[1]
	for _, s := range steps {
		if bitBudget < s[0] {
			break
		}
		v = s[1]
	}
	return Clamp(v, min, max)
}
