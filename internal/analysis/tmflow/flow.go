// Package tmflow is the dataflow layer under the tmvet analyzers: a
// per-function control-flow graph (package cfg) with reaching-definition
// facts, a transitive call-graph walk (Visitor), and cached
// interprocedural allocation summaries (EffectOf). It replaces the purely
// syntactic tree walk the analyzers originally ran on, which is what lets
// them suppress findings on statically infeasible paths (code after
// Tx.Retry or panic, branches that both return) and reason about order —
// the same step up GCC's TM TS checking takes over a per-statement check.
package tmflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"gotle/internal/analysis"
	"gotle/internal/analysis/cfg"
)

// A Func holds the flow facts for one function body.
type Func struct {
	Pkg  *analysis.Package
	Body *ast.BlockStmt
	G    *cfg.Graph

	// conservative vars are address-taken or touched by nested function
	// literals; flow claims nothing precise about them.
	conservative map[*types.Var]bool
	// initialReach records, for each use of a tracked variable in the
	// body's own blocks, whether the value flowing in from before the body
	// (the previous attempt's leak, for a retried transaction) can still
	// reach it.
	initialReach map[*ast.Ident]bool
}

var flowCache sync.Map // *ast.BlockStmt -> *Func

// Of returns the (cached) flow facts for body, which must belong to pkg.
func Of(pkg *analysis.Package, body *ast.BlockStmt) *Func {
	if f, ok := flowCache.Load(body); ok {
		return f.(*Func)
	}
	f := &Func{
		Pkg:          pkg,
		Body:         body,
		conservative: make(map[*types.Var]bool),
		initialReach: make(map[*ast.Ident]bool),
	}
	f.G = cfg.New(body, cfg.Options{NoReturn: func(call *ast.CallExpr) bool {
		return NoReturn(pkg, call)
	}})
	f.analyze()
	flowCache.Store(body, f)
	return f
}

// NoReturn reports whether a call never returns control to the enclosing
// body: builtin panic, Tx.Retry (aborts and re-executes the body from the
// top), runtime.Goexit, os.Exit.
func NoReturn(pkg *analysis.Package, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := pkg.Info.Uses[id].(*types.Builtin); builtin && id.Name == "panic" {
			return true
		}
	}
	fn := pkg.FuncOf(call)
	if fn == nil {
		return false
	}
	if analysis.IsTxMethod(fn, "Retry") {
		return true
	}
	if p := fn.Pkg(); p != nil {
		switch p.Path() + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit":
			return true
		}
	}
	return false
}

// Dead reports whether n is statically unreachable within the body.
func (f *Func) Dead(n ast.Node) bool { return f.G.Dead(n) }

// InitialReaches reports whether the value v held before the body began
// can reach the use at id. It answers true for anything the analysis does
// not track (conservative vars, uses inside nested literals), so a false
// answer is a proof.
func (f *Func) InitialReaches(v *types.Var, id *ast.Ident) bool {
	if f.conservative[v] {
		return true
	}
	reach, ok := f.initialReach[id]
	if !ok {
		return true
	}
	return reach
}

// An event is one ordered read or definition of a variable inside a block.
type event struct {
	read *ast.Ident // a use of def == nil
	def  *types.Var
}

func (f *Func) analyze() {
	info := f.Pkg.Info

	// Conservative vars: address-taken anywhere in the body, or referenced
	// from a nested function literal (the literal may run later, more than
	// once, or on another goroutine).
	ast.Inspect(f.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						f.conservative[v] = true
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
						f.conservative[v] = true
					}
					if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() {
						f.conservative[v] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})

	// Ordered read/def events per block.
	blocks := f.G.Blocks
	events := make([][]event, len(blocks))
	universe := make(map[*types.Var]bool)
	for i, b := range blocks {
		for _, n := range b.Nodes {
			evs := f.nodeEvents(n)
			events[i] = append(events[i], evs...)
			for _, e := range evs {
				if e.def != nil {
					universe[e.def] = true
				}
			}
		}
	}

	// Per-variable boolean dataflow: does the initial (pre-body) value
	// reach the block entry? out = in unless the block defines v.
	for v := range universe {
		if f.conservative[v] {
			continue
		}
		hasDef := make([]bool, len(blocks))
		for i := range blocks {
			for _, e := range events[i] {
				if e.def == v {
					hasDef[i] = true
				}
			}
		}
		in := make([]bool, len(blocks))
		out := make([]bool, len(blocks))
		in[f.G.Entry.Index] = true
		out[f.G.Entry.Index] = !hasDef[f.G.Entry.Index]
		for changed := true; changed; {
			changed = false
			for i, b := range blocks {
				ni := in[i]
				for _, p := range b.Preds {
					ni = ni || out[p.Index]
				}
				if b == f.G.Entry {
					ni = true
				}
				no := ni && !hasDef[i]
				if ni != in[i] || no != out[i] {
					in[i], out[i] = ni, no
					changed = true
				}
			}
		}
		for i := range blocks {
			cur := in[i]
			for _, e := range events[i] {
				if e.def == v {
					cur = false
				} else if e.read != nil {
					if rv, ok := info.Uses[e.read].(*types.Var); ok && rv == v {
						f.initialReach[e.read] = cur
					}
				}
			}
		}
	}
}

// nodeEvents extracts the ordered reads and definitions of one block node.
func (f *Func) nodeEvents(n ast.Node) []event {
	info := f.Pkg.Info
	var evs []event
	reads := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
					evs = append(evs, event{read: id})
				}
			}
			return true
		})
	}
	defOf := func(id *ast.Ident) {
		var v *types.Var
		if dv, ok := info.Defs[id].(*types.Var); ok {
			v = dv
		} else if uv, ok := info.Uses[id].(*types.Var); ok {
			v = uv
		}
		if v != nil && !v.IsField() {
			evs = append(evs, event{def: v})
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			reads(r)
		}
		compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				if compound {
					evs = append(evs, event{read: id})
				}
				defOf(id)
			} else {
				reads(l)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			evs = append(evs, event{read: id})
			defOf(id)
		} else {
			reads(n.X)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					reads(val)
				}
				for _, name := range vs.Names {
					defOf(name)
				}
			}
		}
	case *ast.RangeStmt:
		// Shallow: the head evaluates X and defines Key/Value; the body has
		// its own blocks.
		reads(n.X)
		for _, kv := range []ast.Expr{n.Key, n.Value} {
			if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
				defOf(id)
			}
		}
	case *ast.SendStmt:
		reads(n.Chan)
		reads(n.Value)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			reads(r)
		}
	case *ast.ExprStmt:
		reads(n.X)
	case *ast.GoStmt:
		reads(n.Call)
	case *ast.DeferStmt:
		reads(n.Call)
	case ast.Expr:
		reads(n)
	}
	return evs
}
