// Package hotpath implements the pclint analyzer that keeps annotated
// hot functions allocation-free at go vet time — the static complement
// of the perfguard runtime wall (0 allocs/op on the predict/resolve
// benches).
//
// A function is opted in by a //pclint:hotpath directive in its doc
// comment. Inside such a function the analyzer rejects the constructs
// that heap-allocate or drag in formatting machinery:
//
//   - make, new, and append calls;
//   - slice and map composite literals, and &T{...} (escaping literal);
//   - conversions to interface types, implicit boxing of concrete
//     values into interface parameters of static callees, and
//     string<->[]byte conversions;
//   - non-constant string concatenation;
//   - go statements, function literals, and method values (closures);
//   - any call into fmt, errors, or log;
//   - static calls to functions that are not themselves annotated
//     //pclint:hotpath (math/bits and sync/atomic are allowlisted:
//     their functions compile to intrinsics and never allocate).
//
// Dynamic calls — through interface methods, function values, or
// closures — are permitted here: interface dispatch does not allocate.
// Dispatch through the predictor interfaces specifically is policed by
// the companion devirt analyzer, now that every registered family runs
// on devirtualized lanes (core.RegisterLanes). A cold line inside
// a hot function (a panic guard, say) can opt out with a trailing
// //pclint:allow comment.
package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"prophetcritic/internal/analysis"
)

// Marker is the annotation directive, written as //pclint:hotpath on
// the line above (or in the doc comment of) a function declaration.
const Marker = "pclint:hotpath"

// allowedPkgs may be called from hot functions without annotation:
// math/bits functions compile to branch-free intrinsics, and
// sync/atomic operations compile to single atomic instructions —
// neither can allocate, and atomics are exactly what the sampled obs
// counter flushes on the hot path are built from.
var allowedPkgs = map[string]bool{
	"math/bits":   true,
	"sync/atomic": true,
}

// fmtPkgs always draw a dedicated diagnostic: calling them means
// formatting, and formatting means allocation.
var fmtPkgs = map[string]bool{
	"fmt":    true,
	"errors": true,
	"log":    true,
}

// Analyzer is the hotpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "reject allocations, formatting calls, and unannotated callees in //pclint:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	local := map[string]bool{}
	var hot []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if hasMarker(fd.Doc) {
				local[declKey(fd)] = true
				hot = append(hot, fd)
			}
		}
	}
	for _, fd := range hot {
		checkFunc(pass, fd, local)
	}
	return nil
}

// hasMarker reports whether a doc comment carries //pclint:hotpath.
func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), Marker) {
			return true
		}
	}
	return false
}

// declKey names a declared function the way callee lookups expect:
// "Func" for package functions, "Type.Method" for methods.
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName unwraps pointers and type parameters to the receiver's
// base type name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// funcKey names a types.Func consistently with declKey.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return n.Obj().Name() + "." + fn.Name()
		}
		return fn.Name() // interface or unnamed receiver
	}
	return fn.Name()
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, local map[string]bool) {
	if fd.Body == nil {
		return
	}

	// Expressions in call position: a selector used as CallExpr.Fun is
	// a call, anywhere else it is a method value (a closure).
	inCallPos := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			inCallPos[ast.Unparen(c.Fun)] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, e, local)
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[e].Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(e.Pos(), "slice composite literal allocates in a hotpath function")
			case *types.Map:
				pass.Reportf(e.Pos(), "map composite literal allocates in a hotpath function")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "taking the address of a composite literal escapes it to the heap in a hotpath function")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				tv := pass.TypesInfo.Types[e]
				if tv.Value == nil && tv.Type != nil && isString(tv.Type) {
					pass.Reportf(e.Pos(), "string concatenation allocates in a hotpath function")
				}
			}
		case *ast.GoStmt:
			pass.Reportf(e.Pos(), "go statement in a hotpath function (goroutine launch allocates)")
		case *ast.FuncLit:
			pass.Reportf(e.Pos(), "function literal may allocate a closure in a hotpath function")
			return false // contents run on someone else's clock
		case *ast.SelectorExpr:
			if inCallPos[e] {
				return true
			}
			if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.MethodVal {
				pass.Reportf(e.Pos(), "method value %s allocates a closure in a hotpath function", e.Sel.Name)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, local map[string]bool) {
	fun := ast.Unparen(call.Fun)

	// Conversions first: T(x) parses as a call.
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type)
		return
	}

	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[f].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s allocates in a hotpath function", obj.Name())
			}
		case *types.Func:
			checkCallee(pass, call, obj, local)
		}
		// Variables holding funcs are dynamic calls: allowed.
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[f]; ok {
			if sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					return // dynamic dispatch: no allocation
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					checkCallee(pass, call, fn, local)
				}
			}
			return // field of func type: dynamic
		}
		// Package-qualified call.
		if fn, ok := pass.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			checkCallee(pass, call, fn, local)
		}
	}
}

// checkConversion rejects conversions that can heap-allocate.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := pass.TypesInfo.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if types.IsInterface(to) && !types.IsInterface(from) && !isUntypedNil(from) {
		pass.Reportf(call.Pos(), "conversion to interface type %s may allocate in a hotpath function", types.TypeString(to, types.RelativeTo(pass.Pkg)))
		return
	}
	if isString(to) != isString(from) && (isByteOrRuneSlice(to) || isByteOrRuneSlice(from)) {
		pass.Reportf(call.Pos(), "conversion between string and slice allocates in a hotpath function")
	}
}

func checkCallee(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func, local map[string]bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe scope (error.Error and friends)
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return // dynamic dispatch
	}
	path := pkg.Path()
	if allowedPkgs[path] {
		checkInterfaceArgs(pass, call, sig)
		return
	}
	if fmtPkgs[path] {
		pass.Reportf(call.Pos(), "call to %s.%s in a hotpath function (formatting and error construction allocate)", pkg.Name(), fn.Name())
		return
	}
	key := funcKey(fn)
	if path == pass.Pkg.Path() {
		if !local[key] {
			pass.Reportf(call.Pos(), "call to non-hotpath function %s from a hotpath function (annotate it //pclint:hotpath or move it off the hot path)", key)
			return
		}
		checkInterfaceArgs(pass, call, sig)
		return
	}
	if !annotated(pass, path, key) {
		pass.Reportf(call.Pos(), "call to non-hotpath function %s.%s from a hotpath function (annotate it //pclint:hotpath or move it off the hot path)", pkg.Name(), key)
		return
	}
	checkInterfaceArgs(pass, call, sig)
}

// checkInterfaceArgs flags concrete values boxed into the interface
// parameters of a static callee — each boxing is a potential heap
// allocation the annotation promised away.
func checkInterfaceArgs(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || isUntypedNil(at) {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(at) {
			pass.Reportf(arg.Pos(), "passing concrete %s as interface parameter may allocate in a hotpath function",
				types.TypeString(at, types.RelativeTo(pass.Pkg)))
		}
	}
}

// annotation caches: one parsed summary per foreign package.
type annCache struct{ m map[string]map[string]bool }

// annotated reports whether the named function in another package
// carries the hotpath marker, parsing that package's source (located
// through Pass.SourceDir) on first use. Unresolvable packages — the
// standard library, external deps — report false: their functions
// cannot be annotated, so they do not belong on a hot path.
func annotated(pass *analysis.Pass, path, key string) bool {
	cache := pass.Shared.Get("hotpath:annotations", func() any {
		return &annCache{m: map[string]map[string]bool{}}
	}).(*annCache)
	anns, ok := cache.m[path]
	if !ok {
		anns = parseAnnotations(pass.SourceDir(path))
		cache.m[path] = anns
	}
	return anns[key]
}

// parseAnnotations scans a directory's non-test Go files for annotated
// declarations. A syntax-only parse is enough: the marker is attached
// to the declaration, not the types.
func parseAnnotations(dir string) map[string]bool {
	out := map[string]bool{}
	if dir == "" {
		return out
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	fset := token.NewFileSet()
	for _, de := range entries {
		name := de.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && hasMarker(fd.Doc) {
				out[declKey(fd)] = true
			}
		}
	}
	return out
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
