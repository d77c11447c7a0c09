package tmflow

import (
	"go/ast"
	"go/types"

	"gotle/internal/analysis"
)

// A Visitor walks a critical-section body and, transitively, every
// module-local function it can statically reach, so analyzers can enforce
// properties over the whole dynamic extent of a transaction the way GCC's
// transaction-safety check follows the call graph. Each body is walked
// under its control-flow graph, so subtrees in statically dead blocks (code
// after Tx.Retry or panic, branches that both return) are pruned instead of
// visited: analyzers built on it do not flag path-infeasible code.
// Function literals passed to Tx.Defer are not walked: deferred actions
// run post-commit and may perform irrevocable effects by design.
type Visitor struct {
	Prog *analysis.Program
	// Opaque, when non-nil, stops descent into callees it reports true
	// for (the call node itself is still visited).
	Opaque func(fn *types.Func) bool
	// Visit is called for every live node reached. trail holds the chain
	// of calls from the root body (empty while inside the body itself).
	// Returning false prunes the subtree below n.
	Visit func(pkg *analysis.Package, n ast.Node, trail []*types.Func) bool
}

// Walk visits root (a function body within pkg) and everything reachable
// from it. Each function declaration is entered at most once per Walk.
func (v *Visitor) Walk(pkg *analysis.Package, root ast.Node) {
	v.walk(pkg, root, nil, make(map[*types.Func]bool))
}

func (v *Visitor) walk(pkg *analysis.Package, root ast.Node, trail []*types.Func, visited map[*types.Func]bool) {
	skips := analysis.DeferSkips(pkg, root)
	var f *Func
	if body, ok := root.(*ast.BlockStmt); ok {
		f = Of(pkg, body)
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if f != nil && f.Dead(n) {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && n != root {
			if skips[lit] {
				return false
			}
			if !v.Visit(pkg, n, trail) {
				return false
			}
			// The literal's interior gets its own graph so dead code inside
			// it is pruned too. DeferSkips re-derives inner skips.
			v.walk(pkg, lit.Body, trail, visited)
			return false
		}
		if !v.Visit(pkg, n, trail) {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := pkg.FuncOf(call)
			if fn == nil || visited[fn] {
				return true
			}
			if v.Opaque != nil && v.Opaque(fn) {
				return true
			}
			if dpkg, decl := v.Prog.DeclOf(fn); decl != nil && decl.Body != nil {
				visited[fn] = true
				v.walk(dpkg, decl.Body, append(trail, fn), visited)
			}
		}
		return true
	})
}
