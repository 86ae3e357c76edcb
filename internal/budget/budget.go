// Package budget maps predictor specs to configurations. It reproduces
// Table 3 of the paper ("Prophet and critic configurations") exactly —
// the published (kind, budget) cells are pinned and resolve
// byte-identically — and generalises beyond it through the predictor
// registry: any registered family can be requested at any budget (the
// family's solver picks the largest geometry that fits) or with fully
// explicit geometry.
//
// The spec grammar accepted by ParseSpec, and therefore by every CLI
// flag and service job spec:
//
//	kind:KB              budget form. Table 3 cells resolve to the
//	                     published geometry; any other budget invokes
//	                     the family's SolveBudget.
//	kind(name=v,...)     explicit geometry. Omitted parameters take the
//	                     schema defaults; kind() is all defaults.
//
// Kind names are matched case-insensitively against registry names and
// aliases ("2Bc-gskew:8", "gskew:8", and "tagged-gshare:16" all work).
//
// Table 3 of the paper:
//
//	Total hardware budget           2KB   4KB   8KB   16KB  32KB
//	gshare        # entries         8K    16K   32K   64K   128K
//	              history length    13    14    15    16    17
//	perceptron    # perceptrons     113   163   282   348   565
//	              history length    17    24    28    47    57
//	2Bc-gskew     # entries/table   2K    4K    8K    16K   32K
//	              history length    11    12    13    14    15
//	tagged gshare # entries         256×6 512×6 1024×6 2048×6 4096×6
//	              BOR size          18    18    18    18    18
//	filtered      # perceptrons     73    113   163   282   348
//	perceptron    history length    13    17    24    28    47
//	  filter      # entries         128×3 256×3 512×3 1024×3 2048×3
//	              history length    18    18    18    18    18
//	              BOR size          18    18    24    28    47
//
// For critics, the BOR size column gives the total register length; the
// number of future bits within it is an experiment parameter.
package budget

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prophetcritic/internal/predictor"
	"prophetcritic/internal/registry"

	// Every predictor family self-registers with the registry; importing
	// the packages here is what makes them reachable from any spec.
	_ "prophetcritic/internal/bimodal"
	_ "prophetcritic/internal/filtered"
	_ "prophetcritic/internal/gshare"
	_ "prophetcritic/internal/gskew"
	_ "prophetcritic/internal/local"
	_ "prophetcritic/internal/perceptron"
	_ "prophetcritic/internal/tagged"
	_ "prophetcritic/internal/tournament"
	_ "prophetcritic/internal/yags"
)

// Kind names a predictor family by its canonical registry name.
type Kind string

// The predictor families of Table 3, plus the families reachable only
// through the registry (solver budgets or explicit geometry).
const (
	Gshare             Kind = "gshare"
	Perceptron         Kind = "perceptron"
	Gskew              Kind = "2Bc-gskew"
	TaggedGshare       Kind = "tagged gshare"
	FilteredPerceptron Kind = "filtered perceptron"
	Bimodal            Kind = "bimodal"
	Local              Kind = "local"
	Tournament         Kind = "tournament"
	YAGS               Kind = "yags"
)

// Budgets are the hardware budgets of Table 3, in kilobytes.
var Budgets = []int{2, 4, 8, 16, 32}

// MaxKB bounds solver budgets; anything larger is a typo, not hardware.
const MaxKB = 1 << 16

// bitsPerKB converts a kilobyte budget to the bit budget solvers see.
const bitsPerKB = 8192

// Config describes how to build one predictor: a registered kind plus a
// complete parameter set. KB records the hardware budget for configs
// resolved from a budget spec (pinned Table 3 cells or solver results);
// explicit-geometry configs have KB == 0.
type Config struct {
	Kind   Kind
	KB     int
	Params registry.Params
}

// table3 holds the published configurations, keyed by canonical kind.
var table3 = map[Kind]map[int]Config{
	Gshare: {
		2:  cell(Gshare, 2, registry.Params{"entries": 8 << 10, "hist": 13}),
		4:  cell(Gshare, 4, registry.Params{"entries": 16 << 10, "hist": 14}),
		8:  cell(Gshare, 8, registry.Params{"entries": 32 << 10, "hist": 15}),
		16: cell(Gshare, 16, registry.Params{"entries": 64 << 10, "hist": 16}),
		32: cell(Gshare, 32, registry.Params{"entries": 128 << 10, "hist": 17}),
	},
	Perceptron: {
		2:  cell(Perceptron, 2, registry.Params{"perceptrons": 113, "hist": 17}),
		4:  cell(Perceptron, 4, registry.Params{"perceptrons": 163, "hist": 24}),
		8:  cell(Perceptron, 8, registry.Params{"perceptrons": 282, "hist": 28}),
		16: cell(Perceptron, 16, registry.Params{"perceptrons": 348, "hist": 47}),
		32: cell(Perceptron, 32, registry.Params{"perceptrons": 565, "hist": 57}),
	},
	Gskew: {
		2:  cell(Gskew, 2, registry.Params{"entries": 2 << 10, "hist": 11}),
		4:  cell(Gskew, 4, registry.Params{"entries": 4 << 10, "hist": 12}),
		8:  cell(Gskew, 8, registry.Params{"entries": 8 << 10, "hist": 13}),
		16: cell(Gskew, 16, registry.Params{"entries": 16 << 10, "hist": 14}),
		32: cell(Gskew, 32, registry.Params{"entries": 32 << 10, "hist": 15}),
	},
	TaggedGshare: {
		2:  cell(TaggedGshare, 2, registry.Params{"sets": 256, "ways": 6, "tag": 8, "bor": 18}),
		4:  cell(TaggedGshare, 4, registry.Params{"sets": 512, "ways": 6, "tag": 8, "bor": 18}),
		8:  cell(TaggedGshare, 8, registry.Params{"sets": 1024, "ways": 6, "tag": 8, "bor": 18}),
		16: cell(TaggedGshare, 16, registry.Params{"sets": 2048, "ways": 6, "tag": 8, "bor": 18}),
		32: cell(TaggedGshare, 32, registry.Params{"sets": 4096, "ways": 6, "tag": 8, "bor": 18}),
	},
	FilteredPerceptron: {
		2:  cell(FilteredPerceptron, 2, registry.Params{"perceptrons": 73, "hist": 13, "fsets": 128, "fways": 3, "tag": 9, "fhist": 18}),
		4:  cell(FilteredPerceptron, 4, registry.Params{"perceptrons": 113, "hist": 17, "fsets": 256, "fways": 3, "tag": 9, "fhist": 18}),
		8:  cell(FilteredPerceptron, 8, registry.Params{"perceptrons": 163, "hist": 24, "fsets": 512, "fways": 3, "tag": 9, "fhist": 18}),
		16: cell(FilteredPerceptron, 16, registry.Params{"perceptrons": 282, "hist": 28, "fsets": 1024, "fways": 3, "tag": 9, "fhist": 18}),
		32: cell(FilteredPerceptron, 32, registry.Params{"perceptrons": 348, "hist": 47, "fsets": 2048, "fways": 3, "tag": 9, "fhist": 18}),
	},
}

// cell builds one pinned Table 3 configuration, validating it against
// the family's schema at package init — a malformed published cell is a
// programming error caught by any test of this package.
func cell(kind Kind, kb int, p registry.Params) Config {
	d := registry.MustLookup(string(kind))
	p = d.Complete(p)
	if err := d.Validate(p); err != nil {
		panic(fmt.Sprintf("budget: bad Table 3 cell %s:%d: %v", kind, kb, err))
	}
	return Config{Kind: kind, KB: kb, Params: p}
}

// CanonicalKind resolves a kind name or alias, case-insensitively, to
// its canonical registry name.
func CanonicalKind(name string) (Kind, error) {
	d, ok := registry.Lookup(name)
	if !ok {
		return "", fmt.Errorf("budget: unknown predictor kind %q (registered: %s)",
			name, strings.Join(registry.Names(), ", "))
	}
	return Kind(d.Name), nil
}

// Lookup returns the pinned Table 3 configuration for (kind, kb). It
// returns an error for unknown kinds and for budgets outside the
// published table; Resolve additionally covers off-table budgets.
func Lookup(kind Kind, kb int) (Config, error) {
	k, err := CanonicalKind(string(kind))
	if err != nil {
		return Config{}, err
	}
	m, ok := table3[k]
	if !ok {
		return Config{}, fmt.Errorf("budget: %s has no Table 3 cells (solver budgets and explicit geometry only)", k)
	}
	c, ok := m[kb]
	if !ok {
		return Config{}, fmt.Errorf("budget: no %s configuration for %dKB (Table 3 covers %v)", k, kb, Budgets)
	}
	return c.clone(), nil
}

// clone detaches the parameter map so callers get the value semantics
// the pre-registry struct Config had: mutating a returned Config can
// never corrupt the pinned Table 3 cells shared by the whole process.
func (c Config) clone() Config {
	c.Params = c.Params.Clone()
	return c
}

// Resolve maps (kind, kb) to a configuration: the pinned Table 3 cell
// when the budget is published, else the largest geometry the family's
// solver fits into kb kilobytes.
func Resolve(kind Kind, kb int) (Config, error) {
	k, err := CanonicalKind(string(kind))
	if err != nil {
		return Config{}, err
	}
	if c, ok := table3[k][kb]; ok {
		return c.clone(), nil
	}
	if kb < 1 || kb > MaxKB {
		return Config{}, fmt.Errorf("budget: %s budget %dKB out of range [1, %d]", k, kb, MaxKB)
	}
	d := registry.MustLookup(string(k))
	p, err := d.SolveBudget(kb * bitsPerKB)
	if err != nil {
		return Config{}, fmt.Errorf("budget: solving %s at %dKB: %w", k, kb, err)
	}
	p = d.Complete(p)
	if err := d.Validate(p); err != nil {
		return Config{}, fmt.Errorf("budget: solving %s at %dKB: %w", k, kb, err)
	}
	return Config{Kind: k, KB: kb, Params: p}, nil
}

// ParseSpec parses a predictor spec — "kind:KB" or "kind(name=v,...)" —
// returning a clean error, never a downstream panic, for malformed
// specs, unknown kinds or parameters, and out-of-range values. It is
// the single spec parser behind the CLI flags and the service's job
// specs, and every Config it returns is fully validated: Build cannot
// panic on it.
func ParseSpec(s string) (Config, error) {
	t := strings.TrimSpace(s)
	if i := strings.IndexByte(t, '('); i >= 0 {
		return parseExplicit(t, i)
	}
	i := strings.LastIndex(t, ":")
	if i < 0 {
		return Config{}, fmt.Errorf("budget: malformed predictor spec %q: want kind:KB (e.g. %q) or kind(name=value,...)", s, "2Bc-gskew:8")
	}
	kind, kbStr := strings.TrimSpace(t[:i]), strings.TrimSpace(t[i+1:])
	if kind == "" {
		return Config{}, fmt.Errorf("budget: malformed predictor spec %q: empty kind", s)
	}
	kb, err := strconv.Atoi(kbStr)
	if err != nil {
		return Config{}, fmt.Errorf("budget: malformed predictor spec %q: bad size %q", s, kbStr)
	}
	return Resolve(Kind(kind), kb)
}

// parseExplicit handles the "kind(name=v,...)" form; i is the index of
// the opening parenthesis.
func parseExplicit(t string, i int) (Config, error) {
	if !strings.HasSuffix(t, ")") {
		return Config{}, fmt.Errorf("budget: malformed predictor spec %q: missing closing parenthesis", t)
	}
	name := strings.TrimSpace(t[:i])
	if name == "" {
		return Config{}, fmt.Errorf("budget: malformed predictor spec %q: empty kind", t)
	}
	k, err := CanonicalKind(name)
	if err != nil {
		return Config{}, err
	}
	d := registry.MustLookup(string(k))
	p := registry.Params{}
	if body := strings.TrimSpace(t[i+1 : len(t)-1]); body != "" {
		for _, kv := range strings.Split(body, ",") {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return Config{}, fmt.Errorf("budget: malformed parameter %q in spec %q: want name=value", strings.TrimSpace(kv), t)
			}
			pname := strings.TrimSpace(kv[:eq])
			v, err := strconv.Atoi(strings.TrimSpace(kv[eq+1:]))
			if err != nil {
				return Config{}, fmt.Errorf("budget: parameter %q in spec %q: bad value %q", pname, t, strings.TrimSpace(kv[eq+1:]))
			}
			if _, dup := p[pname]; dup {
				return Config{}, fmt.Errorf("budget: duplicate parameter %q in spec %q", pname, t)
			}
			p[pname] = v
		}
	}
	p = d.Complete(p)
	if err := d.Validate(p); err != nil {
		return Config{}, err
	}
	return Config{Kind: k, Params: p}, nil
}

// MustLookup is Lookup that panics on error; experiment tables are
// static so a failure is a programming error. User input must go
// through ParseSpec or Resolve instead.
func MustLookup(kind Kind, kb int) Config {
	c, err := Lookup(kind, kb)
	if err != nil {
		panic(err)
	}
	return c
}

// MustResolve is Resolve that panics on error, for (kind, budget) pairs
// already validated by the caller.
func MustResolve(kind Kind, kb int) Config {
	c, err := Resolve(kind, kb)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the spec that reproduces the configuration: "kind:KB"
// for budget-resolved configs, "kind(name=v,...)" with every parameter
// explicit (schema order) for explicit geometry. ParseSpec(c.String())
// returns a Config equal to c.
func (c Config) String() string {
	if c.KB > 0 {
		return fmt.Sprintf("%s:%d", c.Kind, c.KB)
	}
	d, ok := registry.Lookup(string(c.Kind))
	if !ok {
		return string(c.Kind) + "(?)"
	}
	parts := make([]string, 0, len(d.Params))
	for _, s := range d.Params {
		parts = append(parts, fmt.Sprintf("%s=%d", s.Name, c.Params[s.Name]))
	}
	return fmt.Sprintf("%s(%s)", c.Kind, strings.Join(parts, ","))
}

// Equal reports whether two configurations describe the same build.
func (c Config) Equal(o Config) bool {
	return c.Kind == o.Kind && c.KB == o.KB && c.Params.Equal(o.Params)
}

// Build instantiates the predictor described by the configuration. It
// panics on malformed configurations — a programming error, since every
// Config produced by ParseSpec, Lookup, or Resolve is pre-validated.
func (c Config) Build() predictor.Predictor {
	d, ok := registry.Lookup(string(c.Kind))
	if !ok {
		panic(fmt.Sprintf("budget: cannot build unregistered kind %q", c.Kind))
	}
	p, err := d.Build(c.Params)
	if err != nil {
		panic(fmt.Sprintf("budget: building %s: %v", c, err))
	}
	return p
}

// IsCritic reports whether the kind is Tagged-capable — one of the
// paper's filtered critic designs. Any kind can still serve as an
// unfiltered critic.
func (c Config) IsCritic() bool {
	d, ok := registry.Lookup(string(c.Kind))
	return ok && d.Critic
}

// HistLen returns the configuration's history length parameter (0 for
// families without one, e.g. bimodal).
func (c Config) HistLen() uint { return uint(c.Params["hist"]) }

// BORSize returns the branch-outcome-register length the configuration
// consumes as a critic: the family's BORLen hook when registered, else
// its global-history parameter. This is exactly the history reach the
// built predictor reports, so validating future bits against it is
// equivalent to validating against the constructed critic — a family
// returning 0 (bimodal, local) reads no global history and can take no
// future bits.
func (c Config) BORSize() uint {
	d, ok := registry.Lookup(string(c.Kind))
	if !ok {
		return 0
	}
	if d.BORLen != nil {
		return uint(d.BORLen(c.Params))
	}
	return uint(c.Params["hist"])
}

// FilterHist returns the filtered perceptron's filter history length —
// the promoted Table 3 "filter history" row (0 for other families).
func (c Config) FilterHist() uint { return uint(c.Params["fhist"]) }

// Kinds returns the Table 3 kinds in published row order. Registry
// listings (pcsim -list-kinds, GET /v1/predictors) cover every
// registered family, including the ones without pinned cells.
func Kinds() []Kind {
	return []Kind{Gshare, Perceptron, Gskew, TaggedGshare, FilteredPerceptron}
}

// TableBudgets returns the pinned Table 3 budgets for a kind, in
// ascending order (empty for families outside the table).
func TableBudgets(kind Kind) []int {
	k, err := CanonicalKind(string(kind))
	if err != nil {
		return nil
	}
	m := table3[k]
	kbs := make([]int, 0, len(m))
	for kb := range m {
		kbs = append(kbs, kb)
	}
	sort.Ints(kbs)
	return kbs
}

// All returns every pinned Table 3 configuration, ordered by kind then
// budget, for table generation.
func All() []Config {
	var out []Config
	for _, k := range Kinds() {
		for _, kb := range TableBudgets(k) {
			out = append(out, table3[k][kb].clone())
		}
	}
	return out
}
