// Package hotalloc implements the allocation-freedom analyzer for the
// serving path: every function whose doc comment carries //gotle:hotpath
// must be allocation-free, transitively, in steady state.
//
// The runtime enforcement is testing.AllocsPerRun in the serve-smoke
// gate; hotalloc is its static explanation. Where the runtime gate says
// "0 allocs/op" for four composite scenarios, hotalloc says per function
// and per site WHY — and catches a regression in any covered function
// before a benchmark run does.
//
// "Allocation-free in steady state" deliberately admits the repo's two
// amortization idioms, which the runtime gate measures at zero:
//
//   - cap-guarded make: `if cap(buf) < need { buf = make(...) }` grows a
//     reused buffer geometrically; warm runs never enter the branch;
//   - self-append: `x = append(x, ...)` (and `return append(dst, ...)`)
//     grows caller-owned storage that later calls reuse.
//
// Everything else that can touch the heap is flagged: unguarded make/new,
// non-self append, slice/map composite literals, address-taken composites,
// string concatenation and string<->[]byte conversions, escaping closures
// (including Tx.Defer arguments, which are retained until commit), go
// statements, fmt/errors.New/strconv formatting calls, boxing a non-pointer
// value into an interface parameter, dynamic calls, and calls into
// external code not on the allocation-free allowlist.
//
// Closures passed directly as arguments to the TM runtime's own entry
// points (Mutex.Do, Engine.Atomic) are the one non-obvious exemption:
// measured with AllocsPerRun, they do not escape — the runtime invokes
// them synchronously and the compiler keeps them on the stack — so only
// their interiors are checked. Tx.Defer arguments DO escape (the engine
// retains them until commit) and are flagged.
//
// The walk descends only into module-local callees whose allocation
// summary (tmflow.EffectOf) says they may allocate; summary-clean callees
// are pruned, which is what keeps the transitive audit inside the lint
// budget. //gotle:coldpath marks deliberately unoptimized branches (error
// replies, stats rendering) as opaque.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "verify //gotle:hotpath functions are transitively allocation-free in steady state",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !pass.Prog.Hotpath(fn) {
				continue
			}
			c := &checker{pass: pass, visited: map[*types.Func]bool{fn: true}}
			c.body(pass.Pkg, fd.Body, nil)
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	visited map[*types.Func]bool
}

// body checks one function body. trail is the call chain from the
// //gotle:hotpath root.
func (c *checker) body(pkg *analysis.Package, body *ast.BlockStmt, trail []*types.Func) {
	f := tmflow.Of(pkg, body)
	deferLits := analysis.DeferSkips(pkg, body)
	runtimeArg := runtimeArgLits(pkg, body)
	amortized := amortizedMakes(pkg, body)
	selfAppend := selfAppends(pkg, body)

	ast.Inspect(body, func(n ast.Node) bool {
		if f.Dead(n) {
			return false
		}
		via := analysis.TrailString(trail)
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body == body {
				return true
			}
			switch {
			case deferLits[n]:
				c.pass.Reportf(n.Pos(), "closure passed to Tx.Defer on the hot path: the engine retains it until commit, so it escapes and allocates%s", via)
			case runtimeArg[n]:
				// Direct argument to a TM runtime call: measured
				// non-escaping. The interior still runs on the hot path.
				c.body(pkg, n.Body, trail)
			default:
				c.pass.Reportf(n.Pos(), "escaping function literal on the hot path: closure creation allocates%s", via)
			}
			return false
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement on the hot path: spawning a goroutine allocates its stack%s", via)
			return true
		case *ast.CallExpr:
			c.call(pkg, n, amortized, selfAppend, trail)
			return true
		}
		if desc := tmflow.AllocNodeDesc(pkg, n); desc != "" {
			c.pass.Reportf(n.Pos(), "%s on the hot path%s", desc, via)
		}
		return true
	})
}

func (c *checker) call(pkg *analysis.Package, call *ast.CallExpr, amortized, selfAppend map[*ast.CallExpr]bool, trail []*types.Func) {
	via := analysis.TrailString(trail)
	if desc := tmflow.ConvAllocDesc(pkg, call); desc != "" {
		c.pass.Reportf(call.Pos(), "%s on the hot path%s", desc, via)
		return
	}
	if name, ok := builtinName(pkg, call); ok {
		switch name {
		case "make", "new":
			if !amortized[call] {
				c.pass.Reportf(call.Pos(), "unguarded %s on the hot path allocates every call: cap-guard and reuse the buffer to amortize%s", name, via)
			}
		case "append":
			if !selfAppend[call] {
				c.pass.Reportf(call.Pos(), "append into a fresh destination on the hot path allocates: append into the reused base (x = append(x, ...)) to amortize%s", via)
			}
		}
		return
	}
	fn := pkg.FuncOf(call)
	if fn == nil {
		if isTypeConversion(pkg, call) {
			return // non-allocating conversion (ConvAllocDesc said nothing)
		}
		c.pass.Reportf(call.Pos(), "dynamic call on the hot path: cannot verify the callee allocation-free (name the function or annotate the target //gotle:hotpath)%s", via)
		return
	}
	if analysis.IsRuntimeFn(fn) || analysis.IsTicketWait(fn) {
		return // trusted TM runtime; waiting is txsafe's concern
	}
	if c.pass.Prog.Coldpath(fn) {
		return // deliberately unoptimized branch, trusted by annotation
	}
	if fn.FullName() == "slices.Grow" && selfAppend[call] {
		return // x = slices.Grow(x, n): amortized like self-append
	}
	if desc := tmflow.AllocCallDesc(fn); desc != "" {
		c.pass.Reportf(call.Pos(), "%s on the hot path%s", desc, via)
		return
	}
	// The strconv.Append* family is allowlisted because appending into a
	// reused buffer is the amortized idiom — but Append into a literal
	// nil destination allocates a fresh slice every call.
	if fn.Pkg() != nil && fn.Pkg().Path() == "strconv" && len(call.Args) > 0 &&
		strings.HasPrefix(fn.Name(), "Append") {
		if tv, ok := pkg.Info.Types[call.Args[0]]; ok && tv.IsNil() {
			c.pass.Reportf(call.Pos(), "calls %s with a nil destination on the hot path: Append into nil allocates every call; pass a reused buffer%s", fn.FullName(), via)
		}
	}
	c.boxing(pkg, call, fn, via)
	if dpkg, decl := c.pass.Prog.DeclOf(fn); decl != nil && decl.Body != nil {
		if c.visited[fn] {
			return
		}
		c.visited[fn] = true
		if tmflow.EffectOf(c.pass.Prog, fn).Allocates {
			// Summary prefilter: descend only where something may allocate;
			// the precise walk then re-judges each site under the
			// amortization rules the summary does not model.
			c.body(dpkg, decl.Body, append(trail, fn))
		}
		return
	}
	if !tmflow.AllocFreeExtern(fn) {
		c.pass.Reportf(call.Pos(), "calls %s on the hot path: external function not on the allocation-free allowlist%s", fn.FullName(), via)
	}
}

// boxing flags non-pointer-shaped values passed to interface parameters:
// the conversion heap-boxes the value. Pointer-shaped kinds (pointers,
// channels, maps, funcs, unsafe pointers) fit the interface word and do
// not allocate; interface-to-interface conversions do not re-box.
func (c *checker) boxing(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func, via string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = types.Unalias(params.At(params.Len() - 1).Type().Underlying()).(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if _, isTParam := pt.(*types.TypeParam); isTParam {
			continue // instantiated statically, never boxed
		}
		if _, isIface := types.Unalias(pt.Underlying()).(*types.Interface); !isIface {
			continue
		}
		tv, ok := pkg.Info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		switch types.Unalias(tv.Type.Underlying()).(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
			continue
		}
		c.pass.Reportf(arg.Pos(), "passing %s by value to interface parameter of %s boxes it on the heap%s", tv.Type.String(), fn.FullName(), via)
	}
}

// runtimeArgLits returns the function literals within body passed
// directly as arguments to TM runtime calls (Mutex.Do, Engine.Atomic,
// ...), excluding Tx.Defer whose arguments escape. Measured with
// AllocsPerRun: these literals stay on the stack.
func runtimeArgLits(pkg *analysis.Package, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pkg.FuncOf(call)
		if fn == nil || !analysis.IsRuntimeFn(fn) || analysis.IsTxMethod(fn, "Defer") {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// amortizedMakes returns the make/new calls inside an if-branch whose
// condition reads cap() or len() — the cap-guarded grow idiom. Warm
// steady-state runs never enter the branch.
func amortizedMakes(pkg *analysis.Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !condReadsCap(pkg, ifs.Cond) {
			return true
		}
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := builtinName(pkg, call); ok && (name == "make" || name == "new") {
				out[call] = true
			}
			return true
		})
		return true
	})
	return out
}

func condReadsCap(pkg *analysis.Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := builtinName(pkg, call); ok && (name == "cap" || name == "len") {
			found = true
		}
		return true
	})
	return found
}

// selfAppends returns the append (and slices.Grow) calls whose result
// feeds back into the same base: `x = append(x, ...)`, `x =
// append(x[:0], ...)`, `x.f = append(x.f, ...)`, `x = slices.Grow(x,
// n)[:m]`, and `return append(dst, ...)` (the caller owns and reuses dst;
// a returned slices.Grow is not admitted). Growth is amortized; steady
// state is allocation-free.
func selfAppends(pkg *analysis.Package, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	isAppend := func(e ast.Expr, grow bool) (*ast.CallExpr, bool) {
		e = ast.Unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok && grow {
			e = ast.Unparen(sl.X) // slices.Grow(x, n)[:m]
		}
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return nil, false
		}
		if fn := pkg.FuncOf(call); fn != nil && fn.FullName() == "slices.Grow" {
			return call, grow
		}
		name, ok := builtinName(pkg, call)
		return call, ok && name == "append"
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := isAppend(rhs, true)
				if !ok {
					continue
				}
				base := ast.Unparen(call.Args[0])
				if sl, ok := base.(*ast.SliceExpr); ok {
					base = ast.Unparen(sl.X) // x[:0] reuses x's storage
				}
				if types.ExprString(ast.Unparen(n.Lhs[i])) == types.ExprString(base) {
					out[call] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if call, ok := isAppend(r, false); ok {
					out[call] = true
				}
			}
		}
		return true
	})
	return out
}

func isTypeConversion(pkg *analysis.Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func builtinName(pkg *analysis.Package, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}
