package tmflow

// The protection-domain census walker: enumerates goroutine roots, walks
// each root's statically resolved call graph carrying its synchronization
// context (enclosing transaction, native locks provably held), and records
// every access to a censused location. The walk is memoized per
// (body, root, context) — the same bottom-up shape as the effect
// summaries — so shared helpers are analyzed once per distinct context,
// not once per call site.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gotle/internal/analysis"
)

// A walkCtx is the synchronization context a body executes under.
type walkCtx struct {
	root     int
	txKey    string // elided-lock key; "" outside transactions
	txPretty string
	held     []string // sorted native-lock keys held on entry
}

func (c walkCtx) key() string {
	return c.txKey + "|" + strings.Join(c.held, ",")
}

type walkKey struct {
	body *ast.BlockStmt
	root int
	ctx  string
}

type censusBuilder struct {
	prog *analysis.Program
	c    *ProtCensus

	walked    map[walkKey]bool
	lockFacts map[*ast.BlockStmt][]map[string]bool
	goRoots   map[*ast.GoStmt]*GoRoot
	transfer  map[*types.TypeName]bool
}

func newCensusBuilder(prog *analysis.Program) *censusBuilder {
	return &censusBuilder{
		prog: prog,
		c: &ProtCensus{
			byObj: map[*types.Var]*Location{},
		},
		walked:    map[walkKey]bool{},
		lockFacts: map[*ast.BlockStmt][]map[string]bool{},
		goRoots:   map[*ast.GoStmt]*GoRoot{},
		transfer:  map[*types.TypeName]bool{},
	}
}

func (b *censusBuilder) build() *ProtCensus {
	b.enumerateRoots()

	// Root 0: the program entry — main, init, and the exported API
	// surface of every censused package, which is everything a client
	// goroutine (or a test) can call directly.
	for _, pkg := range b.prog.Packages {
		if !censusScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := fd.Name.Name
				if !ast.IsExported(name) && name != "main" && name != "init" {
					continue
				}
				b.walkBody(pkg, fd.Body, walkCtx{root: 0})
			}
		}
	}
	// Every go statement's target, walked under its own root.
	for _, root := range b.goRoots {
		if root.start != nil {
			b.walkBody(root.startPkg, root.start, walkCtx{root: root.Index})
		}
	}

	// Multi-instance fixpoint: a root spawned inside a loop, or spawned by
	// a root that is itself multi-instance, has several live copies.
	for _, r := range b.c.Roots {
		r.Multi = r.inLoop
	}
	for changed := true; changed; {
		changed = false
		for _, r := range b.c.Roots {
			if r.Multi {
				continue
			}
			for s := range r.spawners {
				if b.c.Roots[s].Multi {
					r.Multi = true
					changed = true
					break
				}
			}
		}
	}

	// Channel-transfer exemption: a named struct whose pointer (or value)
	// is some channel's element type follows an ownership hand-off
	// discipline; its fields are exempt from the race rules. Channel types
	// are collected from every syntactic mention — field declarations,
	// locals, parameters, make sites — and ownership extends to the
	// value-typed struct fields riding inside a transferred container.
	b.collectChanElems()
	b.closeTransferOverFields()
	for _, l := range b.c.Locations {
		if l.Kind == LocField && l.ownerType != nil && b.transfer[l.ownerType] {
			l.ChanTransfer = true
		}
	}

	b.c.finalize()
	return b.c
}

// enumerateRoots assigns one GoRoot per go statement in censused
// packages, recording whether it sits in a loop of its enclosing
// function.
func (b *censusBuilder) enumerateRoots() {
	entry := &GoRoot{Index: 0, Desc: "program entry (main/init/exported API)", spawners: map[int]bool{}}
	b.c.Roots = []*GoRoot{entry}
	for _, pkg := range b.prog.Packages {
		if !censusScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if g, ok := n.(*ast.GoStmt); ok {
					b.addGoRoot(pkg, g, inLoopOf(stack))
				}
				stack = append(stack, n)
				return true
			})
		}
	}
}

// inLoopOf reports whether the innermost enclosing function frame of the
// node whose ancestor stack is given contains a loop around the node.
func inLoopOf(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

func (b *censusBuilder) addGoRoot(pkg *analysis.Package, g *ast.GoStmt, inLoop bool) {
	pos := b.prog.Fset.Position(g.Pos())
	root := &GoRoot{
		Index:    len(b.c.Roots),
		Pos:      g.Pos(),
		Pkg:      pkg,
		Desc:     fmt.Sprintf("goroutine at %s:%d", shortPath(pos.Filename), pos.Line),
		inLoop:   inLoop,
		spawners: map[int]bool{},
		startPkg: pkg,
	}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		root.start = fun.Body
	default:
		if fn := pkg.FuncOf(g.Call); fn != nil && !analysis.IsRuntimeFn(fn) {
			if dpkg, decl := b.prog.DeclOf(fn); decl != nil && decl.Body != nil {
				root.startPkg, root.start = dpkg, decl.Body
			}
		}
	}
	b.goRoots[g] = root
	b.c.Roots = append(b.c.Roots, root)
}

// walkBody analyzes one body under one context, once.
func (b *censusBuilder) walkBody(pkg *analysis.Package, body *ast.BlockStmt, ctx walkCtx) {
	key := walkKey{body, ctx.root, ctx.key()}
	if b.walked[key] {
		return
	}
	b.walked[key] = true

	f := Of(pkg, body)
	facts := b.lockFactsOf(pkg, body)
	w := &walker{
		b: b, pkg: pkg, f: f, ctx: ctx,
		skips: analysis.DeferSkips(pkg, body),
	}

	for i, blk := range f.G.Blocks {
		if !blk.Live {
			continue
		}
		held := map[string]bool{}
		for _, k := range ctx.held {
			held[k] = true
		}
		for k := range facts[i] {
			held[k] = true
		}
		w.held = held
		for _, n := range blk.Nodes {
			w.scanNode(n)
			for _, ev := range lockEventsOf(pkg, n) {
				if ev.acquire {
					held[ev.key] = true
				} else {
					delete(held, ev.key)
				}
			}
		}
	}
}

// ---- native-lock must-held facts ----

type lockEvent struct {
	key     string
	acquire bool
}

// lockEventsOf extracts the sync.Mutex/RWMutex transitions within one
// block node, in source order. Deferred unlocks are skipped — a
// `defer mu.Unlock()` keeps the lock held for the rest of the body —
// and function-literal interiors run as their own bodies.
func lockEventsOf(pkg *analysis.Package, root ast.Node) []lockEvent {
	var evs []lockEvent
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			fn := pkg.FuncOf(n)
			if fn == nil {
				return true
			}
			var acquire, release bool
			switch {
			case analysis.IsMethod(fn, "sync", "Mutex", "Lock"),
				analysis.IsMethod(fn, "sync", "RWMutex", "Lock"),
				analysis.IsMethod(fn, "sync", "RWMutex", "RLock"):
				acquire = true
			case analysis.IsMethod(fn, "sync", "Mutex", "Unlock"),
				analysis.IsMethod(fn, "sync", "RWMutex", "Unlock"),
				analysis.IsMethod(fn, "sync", "RWMutex", "RUnlock"):
				release = true
			}
			if !acquire && !release {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				key := LockOf(pkg, nil, sel.X).Key
				evs = append(evs, lockEvent{key: key, acquire: acquire})
			}
		}
		return true
	})
	return evs
}

// lockFactsOf computes, per CFG block, the set of native locks provably
// held on entry to the block: a must-analysis (intersection meet) over
// the Lock/Unlock events, cached per body (context-held locks are
// unioned in by the walker).
func (b *censusBuilder) lockFactsOf(pkg *analysis.Package, body *ast.BlockStmt) []map[string]bool {
	if facts, ok := b.lockFacts[body]; ok {
		return facts
	}
	f := Of(pkg, body)
	blocks := f.G.Blocks
	events := make([][]lockEvent, len(blocks))
	for i, blk := range blocks {
		for _, n := range blk.Nodes {
			events[i] = append(events[i], lockEventsOf(pkg, n)...)
		}
	}
	// in[i] == nil means "top" (not yet reached): the intersection
	// identity. The entry block starts empty.
	in := make([]map[string]bool, len(blocks))
	in[f.G.Entry.Index] = map[string]bool{}
	apply := func(state map[string]bool, evs []lockEvent) map[string]bool {
		out := make(map[string]bool, len(state))
		for k := range state {
			out[k] = true
		}
		for _, ev := range evs {
			if ev.acquire {
				out[ev.key] = true
			} else {
				delete(out, ev.key)
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for i, blk := range blocks {
			if blk == f.G.Entry {
				continue
			}
			var meet map[string]bool
			for _, p := range blk.Preds {
				if in[p.Index] == nil {
					continue // top: intersection identity
				}
				out := apply(in[p.Index], events[p.Index])
				if meet == nil {
					meet = out
					continue
				}
				for k := range meet {
					if !out[k] {
						delete(meet, k)
					}
				}
			}
			if meet == nil {
				continue
			}
			if in[i] == nil || len(meet) != len(in[i]) {
				in[i] = meet
				changed = true
			}
		}
	}
	for i := range in {
		if in[i] == nil {
			in[i] = map[string]bool{}
		}
	}
	b.lockFacts[body] = in
	return in
}

// ---- the per-node scanner ----

type walker struct {
	b    *censusBuilder
	pkg  *analysis.Package
	f    *Func
	ctx  walkCtx
	held map[string]bool
	// skips are Tx.Defer literals: their bodies run post-commit, outside
	// the transaction.
	skips map[*ast.FuncLit]bool
	// elemDepth > 0 while descending from an index expression to its base:
	// the access is to an element behind the base's header, so the
	// local-copy exemption (which covers only the copy's own memory, not a
	// shared backing array) does not apply.
	elemDepth int
}

func (w *walker) scanNode(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			w.scanExpr(r, true, false)
		}
		compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		for _, l := range n.Lhs {
			w.scanLValue(l, compound)
		}
	case *ast.IncDecStmt:
		w.scanLValue(n.X, true)
	case *ast.SendStmt:
		w.scanExpr(n.Chan, true, false)
		w.scanExpr(n.Value, true, false)
	case *ast.ExprStmt:
		w.scanExpr(n.X, true, false)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.scanExpr(r, true, false)
		}
	case *ast.GoStmt:
		if root, ok := w.b.goRoots[n]; ok {
			root.spawners[w.ctx.root] = true
		}
		// The call's operands are evaluated on this goroutine; the callee
		// runs under its own root.
		for _, a := range n.Call.Args {
			w.scanExpr(a, true, false)
		}
		if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
			w.scanExpr(sel.X, true, false)
		}
	case *ast.DeferStmt:
		// Operands are evaluated now; the call runs at return, when the
		// held-lock state is unknown — walk the callee with only the
		// context locks.
		for _, a := range n.Call.Args {
			w.scanExpr(a, true, false)
		}
		w.handleCall(n.Call, true)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, true, false)
					}
				}
			}
		}
	case *ast.RangeStmt:
		w.scanExpr(n.X, true, false)
		for _, kv := range []ast.Expr{n.Key, n.Value} {
			if kv != nil {
				if _, ok := kv.(*ast.Ident); !ok {
					w.scanLValue(kv, false)
				}
			}
		}
	case *ast.SelectStmt, *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
		// Select comm statements are their own block nodes; the head
		// carries nothing to scan.
	case ast.Expr:
		// Control expressions (if/for/switch conditions).
		w.scanExpr(n, true, false)
	}
}

// scanLValue records the write (and, for compound assignments, the read)
// of one assignment target.
func (w *walker) scanLValue(l ast.Expr, alsoRead bool) {
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		w.recordExpr(l, alsoRead, true, false)
	case *ast.SelectorExpr:
		w.recordExpr(l, alsoRead, true, false)
		w.scanExpr(l.X, true, false)
	case *ast.IndexExpr:
		// Element write: attributed to the base location.
		w.elemDepth++
		w.scanLValue(l.X, true)
		w.elemDepth--
		w.scanExpr(l.Index, true, false)
	case *ast.StarExpr:
		// Write through a pointer: the pointee is unresolved; the pointer
		// itself is read.
		w.scanExpr(l.X, true, false)
	default:
		w.scanExpr(l, true, false)
	}
}

// scanExpr walks an expression in read position, recording location
// accesses and dispatching calls.
func (w *walker) scanExpr(e ast.Expr, read, write bool) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		w.recordExpr(e, read, write, false)
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			w.recordExpr(e, read, write, false)
			w.scanExpr(e.X, true, false)
			return
		}
		// Method value or qualified identifier.
		w.recordExpr(e, read, write, false)
		w.scanExpr(e.X, true, false)
	case *ast.IndexExpr:
		w.elemDepth++
		w.scanExpr(e.X, read, write)
		w.elemDepth--
		w.scanExpr(e.Index, true, false)
	case *ast.SliceExpr:
		w.recordSliceExposure(e)
		w.scanExpr(e.X, true, false)
		w.scanExpr(e.Low, true, false)
		w.scanExpr(e.High, true, false)
		w.scanExpr(e.Max, true, false)
	case *ast.StarExpr:
		w.scanExpr(e.X, true, false)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			// Taking the address of a censused location lets the pointee
			// be read and written wherever the pointer flows.
			w.addrEscape(e.X)
		default:
			w.scanExpr(e.X, true, false)
		}
	case *ast.BinaryExpr:
		w.scanExpr(e.X, true, false)
		w.scanExpr(e.Y, true, false)
	case *ast.CallExpr:
		w.handleCall(e, false)
	case *ast.CompositeLit:
		// A composite literal initializes fresh memory: field keys are
		// not accesses, values are reads.
		w.scanComposite(e)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, true, false)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, true, false)
	case *ast.FuncLit:
		// A literal not consumed by a recognized entry point may run
		// later on this goroutine with no locks provably held; Tx.Defer
		// literals additionally run after commit, outside the transaction.
		ctx := walkCtx{root: w.ctx.root, txKey: w.ctx.txKey, txPretty: w.ctx.txPretty}
		if w.skips[e] {
			ctx.txKey, ctx.txPretty = "", ""
		}
		w.b.walkBody(w.pkg, e.Body, ctx)
	}
}

func (w *walker) scanComposite(lit *ast.CompositeLit) {
	isMap := false
	if t := w.pkg.Info.Types[lit].Type; t != nil {
		_, isMap = types.Unalias(t.Underlying()).(*types.Map)
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if isMap {
				w.scanExpr(kv.Key, true, false)
			}
			w.scanExpr(kv.Value, true, false)
			continue
		}
		w.scanExpr(el, true, false)
	}
}

// addrEscape handles &expr in non-atomic context: the location's address
// escapes, so it is conservatively a read+write at this site.
func (w *walker) addrEscape(target ast.Expr) {
	switch t := ast.Unparen(target).(type) {
	case *ast.CompositeLit:
		w.scanComposite(t)
	case *ast.IndexExpr:
		w.elemDepth++
		w.scanExpr(t.X, true, true)
		w.elemDepth--
		w.scanExpr(t.Index, true, false)
	default:
		w.scanExpr(target, true, true)
	}
}

// handleCall dispatches one call site: TM entry bodies, builtins,
// sync/atomic operations, and module-local callees (walked under the
// propagated context).
func (w *walker) handleCall(call *ast.CallExpr, deferred bool) {
	pkg := w.pkg
	// TM critical-section entries: the body runs under the elided lock.
	if bodyExpr, kind, ok := pkg.AtomicEntry(call); ok {
		for _, a := range call.Args {
			if a == bodyExpr {
				continue
			}
			w.scanExpr(a, true, false)
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			w.scanExpr(sel.X, true, false)
		}
		bpkg, lit, decl := pkg.BodyFunc(bodyExpr)
		txKey, txPretty := "engine:Atomic", "Engine.Atomic"
		if kind == analysis.EntrySynchronized {
			txKey, txPretty = "engine:Synchronized", "Engine.Synchronized"
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn := pkg.FuncOf(call); fn != nil && analysis.IsMethod(fn, analysis.PkgTLE, "Mutex", fn.Name()) {
				id := LockOf(pkg, w.f, sel.X)
				txKey, txPretty = id.Key, id.Pretty
			}
		}
		ctx := walkCtx{root: w.ctx.root, txKey: txKey, txPretty: txPretty, held: heldKeys(w.held)}
		if lit != nil {
			w.b.walkBody(bpkg, lit.Body, ctx)
		} else if decl != nil && decl.Body != nil {
			w.b.walkBody(bpkg, decl.Body, ctx)
		}
		return
	}

	if name, ok := builtinName(pkg, call); ok {
		switch name {
		case "delete":
			if len(call.Args) == 2 {
				w.scanExpr(call.Args[0], true, true)
				w.scanExpr(call.Args[1], true, false)
			}
		case "copy":
			if len(call.Args) == 2 {
				w.scanExpr(call.Args[0], true, true)
				w.scanExpr(call.Args[1], true, false)
			}
		default:
			for _, a := range call.Args {
				w.scanExpr(a, true, false)
			}
		}
		return
	}

	fn := pkg.FuncOf(call)

	// Old-style sync/atomic package functions: the first argument is the
	// address of the word operated on.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
		read, write := atomicAccessKind(fn.Name())
		if len(call.Args) > 0 {
			if addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
				w.recordAtomic(addr.X, read, write)
			} else {
				w.scanExpr(call.Args[0], true, false)
			}
			for _, a := range call.Args[1:] {
				w.scanExpr(a, true, false)
			}
		}
		return
	}

	// Generic operand scan.
	for _, a := range call.Args {
		w.scanExpr(a, true, false)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X, true, false)
	}

	if fn == nil || analysis.IsRuntimeFn(fn) && fn.Pkg().Path() != analysis.PkgMemseg {
		return
	}
	if dpkg, decl := w.b.prog.DeclOf(fn); decl != nil && decl.Body != nil {
		ctx := walkCtx{root: w.ctx.root, txKey: w.ctx.txKey, txPretty: w.ctx.txPretty}
		if !deferred {
			ctx.held = heldKeys(w.held)
		} else {
			ctx.held = w.ctx.held
		}
		w.b.walkBody(dpkg, decl.Body, ctx)
	}
}

func heldKeys(held map[string]bool) []string {
	if len(held) == 0 {
		return nil
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// atomicAccessKind classifies a sync/atomic package function by name.
func atomicAccessKind(name string) (read, write bool) {
	switch {
	case strings.HasPrefix(name, "Load"):
		return true, false
	case strings.HasPrefix(name, "Store"):
		return false, true
	default: // Add, Swap, CompareAndSwap, And, Or
		return true, true
	}
}

// ---- access recording ----

// resolveLoc resolves an expression to a censused location: a struct
// field selection or a package-level variable.
func (w *walker) resolveLoc(e ast.Expr) (v *types.Var, kind LocKind, owner string, ownerType *types.TypeName) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			fv, ok := sel.Obj().(*types.Var)
			if !ok || !fv.IsField() {
				return nil, 0, "", nil
			}
			if tn := namedOf(sel.Recv()); tn != nil {
				return fv, LocField, tn.Name(), tn
			}
			return fv, LocField, "", nil
		}
		if pv, ok := w.pkg.Info.Uses[e.Sel].(*types.Var); ok && !pv.IsField() && isPkgLevel(pv) {
			return pv, LocPkgVar, "", nil
		}
	case *ast.Ident:
		if pv, ok := w.pkg.Info.Uses[e].(*types.Var); ok && !pv.IsField() && isPkgLevel(pv) {
			return pv, LocPkgVar, "", nil
		}
	}
	return nil, 0, "", nil
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func namedOf(t types.Type) *types.TypeName {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func (w *walker) recordExpr(e ast.Expr, read, write, slice bool) {
	v, kind, owner, ownerType := w.resolveLoc(e)
	if v == nil {
		return
	}
	w.recordAccess(e, v, kind, owner, ownerType, read, write, false, slice)
}

// recordAtomic records an access performed through a sync/atomic package
// function; the index subexpressions of the target are ordinary reads.
func (w *walker) recordAtomic(target ast.Expr, read, write bool) {
	base := target
	for {
		switch t := ast.Unparen(base).(type) {
		case *ast.IndexExpr:
			w.scanExpr(t.Index, true, false)
			base = t.X
			continue
		case *ast.StarExpr:
			base = t.X
			continue
		}
		break
	}
	v, kind, owner, ownerType := w.resolveLoc(base)
	if v == nil {
		w.scanExpr(base, true, false)
		return
	}
	w.recordAccess(base, v, kind, owner, ownerType, read, write, true, false)
}

// recordSliceExposure marks a subslice of a censused location escaping:
// its elements become plainly accessible wherever the slice flows, which
// is what lets protdom see bulk plain writes through helper functions.
func (w *walker) recordSliceExposure(e *ast.SliceExpr) {
	v, kind, owner, ownerType := w.resolveLoc(e.X)
	if v == nil {
		return
	}
	w.recordAccess(e, v, kind, owner, ownerType, true, true, false, true)
}

func (w *walker) recordAccess(e ast.Expr, v *types.Var, kind LocKind, owner string, ownerType *types.TypeName, read, write, atomic, slice bool) {
	if v.Pkg() == nil || !censusScope(v.Pkg().Path()) || v.Name() == "_" {
		return
	}
	if selfGuardedType(v.Type()) {
		// Channel-typed fields are not censused, but their element type
		// is what travels the channel: mark it transferred.
		w.b.markTransferElem(v.Type())
		return
	}
	cl := ClassPlain
	var guard string
	var guardKeys []string
	switch {
	case atomic:
		cl = ClassAtomic
	case w.isConstruction(e):
		cl = ClassConstruct
	case !slice && w.elemDepth == 0 && w.isLocalCopy(e):
		// A field of a value-typed local is the function's own copy: the
		// write (or read) touches local memory, not the shared instance —
		// the withDefaults() pattern. Shares the construction bucket: not
		// shared-memory traffic.
		cl = ClassConstruct
	case w.ctx.txKey != "":
		cl, guard, guardKeys = ClassTx, w.ctx.txPretty, []string{w.ctx.txKey}
	case len(w.held) > 0:
		cl = ClassMutex
		guardKeys = heldKeys(w.held)
		guard = prettyLockKey(guardKeys[0])
	}

	loc := w.b.c.locationFor(v, kind, owner)
	if loc.ownerType == nil {
		loc.ownerType = ownerType
	}
	key := fmt.Sprintf("%d|%d|%s|%t", e.Pos(), cl, guard, slice)
	if a, ok := loc.byKey[key]; ok {
		a.Read = a.Read || read
		a.Write = a.Write || write
		a.Roots[w.ctx.root] = true
		return
	}
	a := &Access{
		Pos: e.Pos(), Pkg: w.pkg, Node: e,
		Read: read, Write: write,
		Class: cl, Guard: guard, GuardKeys: guardKeys,
		SliceExposure: slice,
		Roots:         map[int]bool{w.ctx.root: true},
	}
	loc.byKey[key] = a
	loc.Accesses = append(loc.Accesses, a)
}

// isConstruction reports whether e accesses a field of an object the
// enclosing body freshly built: the base local's only definitions are
// composite literals, &literals, or new/make calls, so no other
// goroutine can hold a reference yet.
func (w *walker) isConstruction(e ast.Expr) bool {
	base := ast.Unparen(e)
	for {
		switch t := base.(type) {
		case *ast.SelectorExpr:
			base = ast.Unparen(t.X)
			continue
		case *ast.IndexExpr:
			base = ast.Unparen(t.X)
			continue
		case *ast.StarExpr:
			base = ast.Unparen(t.X)
			continue
		}
		break
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := w.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		v, ok = w.pkg.Info.Defs[id].(*types.Var)
		if !ok {
			return false
		}
	}
	if isPkgLevel(v) || v.IsField() {
		return false
	}
	defs := w.f.defs[v]
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if !freshExpr(w.pkg, d) {
			return false
		}
	}
	return true
}

// isLocalCopy reports whether e selects a field through a chain of
// value-typed (no pointer indirection) selections rooted at a value-typed
// local variable: `c := s.cfg; c.Shards = 8` writes the local copy, not
// the shared struct. Element accesses are excluded by the caller — a
// copied slice header still shares its backing array.
func (w *walker) isLocalCopy(e ast.Expr) bool {
	cur := ast.Unparen(e)
	for {
		sel, ok := cur.(*ast.SelectorExpr)
		if !ok {
			break
		}
		s, ok := w.pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || s.Indirect() {
			return false
		}
		cur = ast.Unparen(sel.X)
	}
	id, ok := cur.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := w.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		if v, ok = w.pkg.Info.Defs[id].(*types.Var); !ok {
			return false
		}
	}
	if v.IsField() || isPkgLevel(v) {
		return false
	}
	t := types.Unalias(v.Type())
	if _, isPtr := t.(*types.Pointer); isPtr {
		return false
	}
	_, isStruct := t.Underlying().(*types.Struct)
	return isStruct
}

// freshExpr recognizes expressions that produce memory no other
// goroutine can reference: composite literals, their addresses, and
// new/make.
func freshExpr(pkg *analysis.Package, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if name, ok := builtinName(pkg, e); ok {
			return name == "new" || name == "make"
		}
	}
	return false
}

// markTransferElem marks the element type of a channel type as
// channel-transferred.
func (b *censusBuilder) markTransferElem(t types.Type) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return
	}
	if tn := namedOf(ch.Elem()); tn != nil && tn.Pkg() != nil && censusScope(tn.Pkg().Path()) {
		b.transfer[tn] = true
	}
}

// collectChanElems marks the element type of every channel type mentioned
// anywhere in a censused package: struct fields, locals, parameters, and
// make sites all declare that values of the element type travel between
// goroutines by hand-off.
func (b *censusBuilder) collectChanElems() {
	for _, pkg := range b.prog.Packages {
		if !censusScope(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ct, ok := n.(*ast.ChanType)
				if !ok {
					return true
				}
				if t := pkg.Info.Types[ct].Type; t != nil {
					b.markTransferElem(t)
				}
				return true
			})
		}
	}
}

// closeTransferOverFields extends the transfer set to the value-typed
// struct fields of every transferred type: when a container's ownership
// moves over a channel, the structs embedded by value move with it.
// Pointer fields stay out — the pointee may be shared independently of
// the container's hand-off.
func (b *censusBuilder) closeTransferOverFields() {
	for changed := true; changed; {
		changed = false
		for tn := range b.transfer {
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				ft := types.Unalias(st.Field(i).Type())
				if _, isPtr := ft.(*types.Pointer); isPtr {
					continue
				}
				ftn := namedOf(ft)
				if ftn == nil || ftn.Pkg() == nil || !censusScope(ftn.Pkg().Path()) || b.transfer[ftn] {
					continue
				}
				b.transfer[ftn] = true
				changed = true
			}
		}
	}
}
