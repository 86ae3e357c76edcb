// Package devirt implements the pclint analyzer that polices the
// devirtualized hot path: inside a //pclint:hotpath function, a dynamic
// method call through the predictor.Predictor or predictor.Tagged
// interface is flagged, because every registered family runs on lanes
// (core.RegisterLanes: generic prophet and critic lanes over the
// family's type), and per-branch interface dispatch on those interfaces
// means the loop is running the slow engine by accident.
//
// What the analyzer cannot see: the lanes are instantiated on pointer
// types (core.RegisterLanes[*gshare.Gshare] and the like), and Go
// compiles every pointer type argument to one GC shape
// (prophetLane[go.shape.*uint8]). A predictor method called inside a
// lane is therefore still an indirect call, through the generic
// dictionary rather than an interface's method table, and it is not
// inlined. Such a call is not an interface call in the source, so
// devirt neither flags it nor proves it direct.
//
// No engine steps hybrids through the interfaces any more: core's
// Predict and Resolve remain only as the oracle the tests hold the lanes
// to, and are not hot functions. A hot line that deliberately dispatches
// can still opt out with a trailing //pclint:allow, so the analyzer
// documents exactly where the interface path is intentional.
//
// Dispatch through other interfaces is not flagged: hotpath already
// polices allocation, and devirtualizing arbitrary interfaces is not an
// invariant this repo maintains.
package devirt

import (
	"go/ast"
	"go/types"
	"strings"

	"prophetcritic/internal/analysis"
)

// Marker is the hotpath annotation directive; devirt polices the same
// function set the hotpath analyzer does.
const Marker = "pclint:hotpath"

// predictorPkg is the import-path leaf of the package whose interfaces
// the analyzer polices; flaggedIfaces are the interface names the lanes
// devirtualize.
const predictorPkg = "predictor"

var flaggedIfaces = map[string]bool{
	"Predictor": true,
	"Tagged":    true,
}

// Analyzer is the devirt analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "devirt",
	Doc:  "reject dynamic dispatch through predictor interfaces in //pclint:hotpath functions: registered families run on devirtualized lanes",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasMarker(fd.Doc) {
				continue
			}
			checkFunc(pass, fd)
		}
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

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		recv := selection.Recv()
		if !types.IsInterface(recv) {
			return true
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return true
		}
		obj := named.Obj()
		if obj.Pkg() == nil || !flaggedIfaces[obj.Name()] {
			return true
		}
		path := obj.Pkg().Path()
		if path != predictorPkg && !strings.HasSuffix(path, "/"+predictorPkg) {
			return true
		}
		pass.Reportf(call.Pos(),
			"dynamic dispatch through %s.%s.%s in a hotpath function: every registered family runs on lanes (use a lane, or mark a deliberate dispatch //pclint:allow)",
			obj.Pkg().Name(), obj.Name(), sel.Sel.Name)
		return true
	})
}
