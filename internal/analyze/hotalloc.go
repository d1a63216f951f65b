package analyze

import (
	"go/ast"
	"go/constant"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotAlloc checks functions annotated //xbar:hotpath for allocating
// constructs. The annotated kernels back every AllocsPerRun guarantee in
// the test suite; this analyzer extends that guarantee from the paths the
// tests happen to drive to every path in the function body.
//
// Flagged: append (unless the destination is the x[:0] reuse idiom —
// either directly or via a variable that is resliced to zero length
// somewhere in the same function, the scratch-buffer pattern), the
// fmt.Sprint*/fmt.Errorf family, slice and map composite literals, and
// interface boxing of a concrete value at a call site. Arguments of
// panic statements are exempt: a panicking shape check is unreachable on
// the hot path it guards.
var HotAlloc = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "forbid allocating constructs in functions annotated //xbar:hotpath",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	allow := newAllowSet(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if inTestFile(pass.Fset, fn.Pos()) || fn.Body == nil {
			return
		}
		if _, ok := hasDirective(fn.Doc, hotpathDirective); !ok {
			return
		}
		checkHotBody(pass, allow, fn)
	})
	return nil, nil
}

func checkHotBody(pass *analysis.Pass, allow *allowed, fn *ast.FuncDecl) {
	checkHotNode(pass, allow, fn.Body, scratchVars(pass, fn.Body), false)
}

// checkHotNode walks the body recursively; exempt is true inside a
// panic(...) argument list.
func checkHotNode(pass *analysis.Pass, allow *allowed, n ast.Node, scratch map[types.Object]bool, exempt bool) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.CallExpr:
		if isPanicCall(pass, x) {
			// The panic expression itself (and its allocations) is cold.
			for _, a := range x.Args {
				checkHotNode(pass, allow, a, scratch, true)
			}
			return
		}
		if !exempt {
			checkHotCall(pass, allow, x, scratch)
		}
	case *ast.CompositeLit:
		if !exempt {
			checkHotComposite(pass, allow, x)
		}
	}
	// Recurse over children with the current exemption.
	children(n, func(c ast.Node) {
		checkHotNode(pass, allow, c, scratch, exempt)
	})
}

// children invokes f on each direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

func checkHotCall(pass *analysis.Pass, allow *allowed, call *ast.CallExpr, scratch map[types.Object]bool) {
	// Builtin append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			if !reuseAppend(pass, call, scratch) {
				allow.reportf(pass, call.Pos(),
					"append in a //xbar:hotpath function may grow the backing array; reuse a scratch buffer via the x[:0] idiom or preallocate")
			}
			return
		}
	}
	// fmt.Sprint* / fmt.Errorf.
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprint", "Sprintf", "Sprintln", "Errorf":
			allow.reportf(pass, call.Pos(),
				"fmt.%s allocates (formatting state and boxed operands); hot paths must not format",
				fn.Name())
			return
		}
	}
	// Interface boxing: a concrete-typed argument passed to an
	// interface-typed parameter forces a heap allocation per call.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.IsNil() || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type.Underlying()) {
			continue // interface→interface carries the existing box
		}
		allow.reportf(pass, arg.Pos(),
			"argument boxes a concrete %s into an interface inside a //xbar:hotpath function",
			types.TypeString(at.Type, types.RelativeTo(pass.Pkg)))
	}
}

func checkHotComposite(pass *analysis.Pass, allow *allowed, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		allow.reportf(pass, lit.Pos(),
			"slice literal allocates in a //xbar:hotpath function; hoist it to a package var or the caller")
	case *types.Map:
		allow.reportf(pass, lit.Pos(),
			"map literal allocates in a //xbar:hotpath function; hoist it to a package var or the caller")
	}
}

// reuseAppend reports whether an append call follows the scratch-reuse
// idiom: append(x[:0], ...) directly, or append(s, ...) where s is a
// variable that is (re)initialized from a [:0] reslice somewhere in the
// function — the amortized high-water-mark pattern of a reused scratch
// buffer.
func reuseAppend(pass *analysis.Pass, call *ast.CallExpr, scratch map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	dst := ast.Unparen(call.Args[0])
	if isZeroReslice(pass, dst) {
		return true
	}
	if id, ok := dst.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil && scratch[obj] {
			return true
		}
	}
	return false
}

// scratchVars collects every variable assigned an x[:0] reslice anywhere
// in the body.
func scratchVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) && len(as.Rhs) != 1 {
				break
			}
			rhs = ast.Unparen(rhs)
			// `s = x[:0]` and `s = append(x[:0], ...)` both reset s to a
			// reused backing array.
			if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) > 0 {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						rhs = ast.Unparen(call.Args[0])
					}
				}
			}
			if !isZeroReslice(pass, rhs) {
				continue
			}
			li := i
			if li >= len(as.Lhs) {
				li = 0
			}
			if id, ok := as.Lhs[li].(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isZeroReslice matches x[:0] (and x[:0:c]).
func isZeroReslice(pass *analysis.Pass, e ast.Expr) bool {
	sl, ok := e.(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sl.High]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v == 0
}

// isPanicCall matches the builtin panic.
func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// callSignature returns the static signature of the called function, or
// nil for builtins and type conversions.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
