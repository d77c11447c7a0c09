// Package txpure implements the transaction-purity analyzer: what may an
// atomic body write or publish outside TM memory. Writes inside an atomic
// body must target TM-managed memory (Tx.Store), because the undo log
// cannot revert a write to the Go heap when the transaction aborts, and an
// atomic body may execute any number of times before it commits (PAPER.md
// Section II.B). Transactional handles must not outlive the section either
// (Section IV.B).
//
// Flagged, each store once:
//
//   - a tm.Tx stored anywhere that outlives the body (a global, a field or
//     element, a captured variable), or captured by a Tx.Defer action,
//     which runs after commit: the handle is valid only inside its own
//     atomic body, on the body's goroutine;
//   - a memseg.Addr published to a global, a field or an element: visible
//     before the transaction commits, and dangling if the attempt aborts
//     after Tx.Alloc (publish through Tx.Store, or after the section);
//   - a write to a package-level variable, in the body or in any function
//     it statically calls: globally visible before the transaction
//     commits, and never rolled back;
//   - a write through a captured reference (pointer, struct field, slice
//     or map element): the target outlives the attempt, so the leak is
//     shared with other goroutines;
//   - a compound write (`+=`, `++`) or a read-and-write of a captured
//     local: a re-execution observes the previous attempt's leaked value,
//     so accumulations like `total += tx.Load(a)` double-count on retry.
//
// Deliberately allowed: the write-only "out parameter" idiom — a captured
// local assigned inside the body with `=` and read only after the
// critical section returns (`v = tx.Load(addr)`, `a = tx.Alloc(1)`). Each
// re-execution fully overwrites the previous attempt's value and the
// caller sees only the committed one. Stores into body-local structures
// die with the attempt. Writes inside Tx.Defer actions run post-commit,
// exactly once, and are likewise exempt.
package txpure

import (
	"go/ast"
	"go/token"
	"go/types"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// Analyzer is the txpure pass.
var Analyzer = &analysis.Analyzer{
	Name: "txpure",
	Doc:  "flag writes and handle escapes from atomic bodies that the undo log cannot revert",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, e := range analysis.AtomicEntries(pass.Pkg) {
		checkEntry(pass, e)
	}
	return nil
}

// A checker judges the stores of one atomic body.
type checker struct {
	pass  *analysis.Pass
	pkg   *analysis.Package
	f     *tmflow.Func
	fnode ast.Node
	// staleRead holds the variables some read of which can observe the
	// value they held at body entry.
	staleRead map[*types.Var]bool
}

func checkEntry(pass *analysis.Pass, e *analysis.Entry) {
	pkg := e.BodyPkg
	skips := analysis.DeferSkips(pkg, e.Body())
	c := &checker{pass: pass, pkg: pkg, f: tmflow.Of(pkg, e.Body()), fnode: e.FuncNode(),
		staleRead: make(map[*types.Var]bool)}

	// Occurrences of an identifier as the target of a plain `=` store
	// write the variable without reading it; every other use is a read.
	storeOnly := make(map[*ast.Ident]bool)
	walk(c.f, e.Body(), skips, func(n ast.Node) {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					storeOnly[id] = true
				}
			}
		}
	})
	// A read is stale when the value the variable held at body entry can
	// still reach it (no write covers every path in). On a re-execution
	// that incoming value is the previous attempt's leak. Reads that are
	// overwritten first on every path are the out-parameter idiom and
	// never observe it.
	walk(c.f, e.Body(), skips, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || storeOnly[id] {
			return
		}
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok && c.f.InitialReaches(v, id) {
			c.staleRead[v] = true
		}
	})

	txv := e.TxParam()
	walk(c.f, e.Body(), skips, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A deferred action runs post-commit: using the Tx inside it
			// is a stale-handle bug even though other irrevocable effects
			// are allowed there.
			if skips[n] && txv != nil {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == txv {
						pass.Reportf(id.Pos(), "transaction handle %s captured by a Tx.Defer action: deferred actions run after commit, when the handle is stale", txv.Name())
					}
					return true
				})
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return
			}
			for i, lhs := range n.Lhs {
				if !c.checkEscape(lhs, analysis.AssignedValue(n, i)) {
					c.checkWrite(lhs, n.Tok != token.ASSIGN)
				}
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, true)
		}
	})

	// A package-level write is wrong anywhere in the section's extent, so
	// static callees are checked for it too (the body's own sites above).
	v := &tmflow.Visitor{Prog: pass.Prog, Opaque: analysis.IsRuntimeFn, Visit: func(pkg *analysis.Package, n ast.Node, trail []*types.Func) bool {
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				lhs = n.Lhs
			}
		case *ast.IncDecStmt:
			lhs = []ast.Expr{n.X}
		}
		for _, l := range lhs {
			if root := analysis.RootIdent(l); root != nil && len(trail) > 0 {
				if g, ok := pkg.Info.Uses[root].(*types.Var); ok && pkg.IsGlobal(g) {
					pass.Reportf(l.Pos(), "write to or through package-level variable %s in an atomic block: not rolled back on abort (use Tx.Store on TM memory, or Tx.Defer)%s", g.Name(), analysis.TrailString(trail))
				}
			}
		}
		return true
	}}
	v.Walk(pkg, e.Body())
}

// checkEscape flags a store of a Tx or a TM address into a location that
// outlives or escapes the section, and reports whether it did. For Tx
// handles even a captured local escapes (any use after the body returns
// is stale); for addresses, captured plain locals are the sanctioned
// out-parameter idiom. A field, element or pointee escapes unless its
// root is a variable of the body (a scratch struct that dies with the
// attempt).
func (c *checker) checkEscape(lhs, rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	t := c.pkg.Info.Types[rhs].Type
	if t == nil {
		return false
	}
	isTx := analysis.IsTxType(t)
	if !isTx && !analysis.IsAddrType(t) {
		return false
	}
	var target string
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v := c.varOf(l)
		switch {
		case v == nil:
		case c.pkg.IsGlobal(v):
			target = "package-level variable " + v.Name()
		case isTx && c.isCaptured(v):
			target = "captured variable " + v.Name()
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if root := analysis.RootIdent(l); root != nil {
			if v, ok := c.pkg.Info.Uses[root].(*types.Var); ok && !v.IsField() && !c.pkg.IsGlobal(v) && !c.isCaptured(v) {
				return false
			}
		}
		switch l.(type) {
		case *ast.SelectorExpr:
			target = "a struct field"
		case *ast.IndexExpr:
			target = "a container element"
		default:
			target = "a pointed-to location"
		}
	}
	if target == "" {
		return false
	}
	if isTx {
		c.pass.Reportf(lhs.Pos(), "transaction handle stored into %s: a Tx is only valid inside its own atomic body and is stale after commit", target)
	} else {
		c.pass.Reportf(lhs.Pos(), "TM address published to %s from inside an atomic block: visible before commit, and dangling if the attempt aborts after Tx.Alloc (publish via Tx.Store, or after the critical section)", target)
	}
	return true
}

// checkWrite judges one assignment target. compound marks read-modify-
// write forms (`+=`, `++`), which inherently read their target.
func (c *checker) checkWrite(lhs ast.Expr, compound bool) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		v := c.varOf(id)
		if v == nil {
			return
		}
		// A compound write reads its own target, but only observes the
		// previous attempt's value when no plain write precedes it on some
		// path (v = ...; v++ reads this attempt's value and is safe).
		compoundStale := compound && c.f.InitialReaches(v, id)
		switch {
		case c.pkg.IsGlobal(v):
			c.pass.Reportf(lhs.Pos(), "write to package-level variable %s in an atomic block: globally visible before commit and not rolled back on abort (use Tx.Store on TM memory, or Tx.Defer)", v.Name())
		case c.isCaptured(v) && (compoundStale || c.staleRead[v]):
			c.pass.Reportf(lhs.Pos(), "captured variable %s is read and written in this atomic block: a re-execution after abort observes the previous attempt's value, e.g. an accumulation double-counts on retry (keep a body-local and assign the captured variable exactly once)", v.Name())
		}
		return
	}
	// Selector / index / deref target: the write lands wherever the root
	// reference leads. If the root is captured or global, the target
	// outlives the attempt and escapes the undo log.
	root := analysis.RootIdent(lhs)
	if root == nil {
		return
	}
	v := c.varOf(root)
	if v == nil {
		return
	}
	switch {
	case c.pkg.IsGlobal(v):
		c.pass.Reportf(lhs.Pos(), "write through package-level variable %s in an atomic block: not rolled back on abort (use Tx.Store on TM memory, or Tx.Defer)", v.Name())
	case c.isCaptured(v):
		c.pass.Reportf(lhs.Pos(), "write through captured %s in an atomic block: the target outlives the attempt and the undo log cannot revert it (move the data into TM memory, or defer the write with Tx.Defer)", v.Name())
	}
}

// varOf resolves an identifier to the variable it names; the blank
// identifier names none.
func (c *checker) varOf(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// isCaptured reports whether v is a free variable of the body: declared
// outside the function node (the body's own parameters and results count
// as local).
func (c *checker) isCaptured(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil || c.pkg.IsGlobal(v) {
		return false
	}
	return v.Pos() < c.fnode.Pos() || v.Pos() > c.fnode.End()
}

// walk visits the live nodes of body, skipping the interiors of function
// literals deferred with Tx.Defer (they run post-commit; the literal node
// itself is visited) and subtrees the control-flow graph proves
// unreachable (after Tx.Retry or panic, branches that both return), but
// descending into other nested literals, which execute within the
// transaction.
func walk(f *tmflow.Func, body ast.Node, skips map[*ast.FuncLit]bool, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || f.Dead(n) {
			return false
		}
		visit(n)
		lit, ok := n.(*ast.FuncLit)
		return !ok || !skips[lit]
	})
}
