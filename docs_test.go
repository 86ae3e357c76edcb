package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations TestDocCitations checks.
// bench/README.md belongs to the benchmark harness and is left out.
var citingDocs = []string{"README.md", "EXPERIMENTS.md", "internal/README.md"}

var (
	citedTestRe   = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*?)`)
	definedTestRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	scriptRe      = regexp.MustCompile(`\bscripts/[\w.-]+\.sh\b`)
	// An invocation is a tool name at the start of a word (or after
	// "go run ./cmd/"), then, for pcserved, a mode; group 1 is the tool.
	invocationRe = regexp.MustCompile("(?:go run \\./cmd/|(?:^|[\\s`(]))(pcsim|experiments|pcserved\\s+[a-z]+)\\b")
	flagRe       = regexp.MustCompile("(?:^|[\\s`(\\[])-([a-z][a-z0-9-]*)")
)

// TestDocCitations keeps the docs honest about the tree. In README.md,
// EXPERIMENTS.md and internal/README.md:
//   - every Test*, Fuzz* and Benchmark* name is a function in some
//     _test.go file, and a name ending in * matches at least one;
//   - every scripts/*.sh path exists;
//   - every -flag shown with pcsim, experiments or a pcserved mode is
//     defined by that command (for pcserved, by that mode's flag set).
//     A flag belongs to the invocation before it up to the end of the
//     line, a backtick, a pipe, &, ; or a # comment; a line ending in a
//     backslash continues on the next.
func TestDocCitations(t *testing.T) {
	tests := definedTests(t)
	flags := map[string]map[string]bool{
		"pcsim":       commandFlags(t, "cmd/pcsim")[""],
		"experiments": commandFlags(t, "cmd/experiments")[""],
	}
	for mode, set := range commandFlags(t, "cmd/pcserved") {
		if mode != "" {
			flags[mode] = set
		}
	}
	var nTests, nScripts, nFlags int
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range citedTestRe.FindAllStringSubmatch(text, -1) {
			nTests++
			if !citedTestExists(tests, m[1], m[2] == "*") {
				t.Errorf("%s cites %s%s, which no _test.go file defines", doc, m[1], m[2])
			}
		}
		for _, path := range scriptRe.FindAllString(text, -1) {
			nScripts++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s cites %s: %v", doc, path, err)
			}
		}
		for i, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
			for _, inv := range invocations(line) {
				set, ok := flags[inv.tool]
				if !ok {
					continue // not a command: "pcserved is", "pcserved as"
				}
				for _, f := range inv.flags {
					nFlags++
					if !set[f] {
						t.Errorf("%s: line %d shows %s -%s, which %s does not define", doc, i+1, inv.tool, f, inv.tool)
					}
				}
			}
		}
	}
	t.Logf("checked %d test names, %d script paths and %d flags", nTests, nScripts, nFlags)
}

// definedTests collects the names of every Test, Fuzz and Benchmark
// function in the module's _test.go files.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTestRe.FindAllStringSubmatch(string(data), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func citedTestExists(tests map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return tests[name]
	}
	for n := range tests {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// commandFlags returns the flags each flag set of the command in dir
// defines, keyed by the flag set's mode: "" for the whole command (every
// flag in the package), "pcserved worker" for the set a function builds
// with flag.NewFlagSet("pcserved worker", ...), together with the flags
// of the package functions it calls, such as a shared apiFlags(fs).
func commandFlags(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type fn struct {
		mode  string
		flags []string
		calls []string
	}
	funcs := map[string]*fn{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				f := &fn{}
				funcs[d.Name.Name] = f
				ast.Inspect(d.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok {
						f.calls = append(f.calls, id.Name)
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					arg := -1
					switch sel.Sel.Name {
					case "NewFlagSet":
						if s, ok := stringArg(call, 0); ok {
							f.mode = s
						}
					case "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Float64", "Duration", "Func", "BoolFunc":
						arg = 0
					case "Var", "TextVar":
						arg = 1
					}
					if s, ok := stringArg(call, arg); ok {
						f.flags = append(f.flags, s)
					}
					return true
				})
			}
		}
	}
	out := map[string]map[string]bool{"": {}}
	for _, f := range funcs {
		for _, name := range f.flags {
			out[""][name] = true
		}
		if f.mode == "" {
			continue
		}
		set := map[string]bool{}
		for _, name := range f.flags {
			set[name] = true
		}
		for _, callee := range f.calls {
			if g, ok := funcs[callee]; ok && g.mode == "" {
				for _, name := range g.flags {
					set[name] = true
				}
			}
		}
		out[f.mode] = set
	}
	return out
}

// stringArg returns call's i-th argument when it is a string literal.
func stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i < 0 || i >= len(call.Args) {
		return "", false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// invocation is one command shown on a doc line with the flags after it.
type invocation struct {
	tool  string // "pcsim", "experiments" or "pcserved <mode>"
	flags []string
}

// invocations finds the commands a doc line shows and the flags that
// follow each, up to the end of its segment.
func invocations(line string) []invocation {
	var out []invocation
	locs := invocationRe.FindAllStringSubmatchIndex(line, -1)
	for k, loc := range locs {
		end := len(line)
		if k+1 < len(locs) {
			end = locs[k+1][0]
		}
		seg := line[loc[1]:end]
		if cut := strings.IndexAny(seg, "`|&;#"); cut >= 0 {
			seg = seg[:cut]
		}
		inv := invocation{tool: strings.Join(strings.Fields(line[loc[2]:loc[3]]), " ")}
		for _, m := range flagRe.FindAllStringSubmatch(seg, -1) {
			inv.flags = append(inv.flags, m[1])
		}
		out = append(out, inv)
	}
	return out
}
