package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the TM stack's packages. The root package gotle
// re-exports these as type aliases, so matching the internal types also
// matches code written against the public surface.
const (
	PkgTM      = "gotle/internal/tm"
	PkgTLE     = "gotle/internal/tle"
	PkgCondvar = "gotle/internal/condvar"
	PkgMemseg  = "gotle/internal/memseg"
	// PkgWAL is the redo log. It is deliberately NOT in RuntimePkgs:
	// txsafe flags its Ticket.Wait durability rendezvous inside critical
	// sections, and hotalloc audits its hot append path.
	PkgWAL = "gotle/internal/wal"
)

// EntryKind distinguishes the two critical-section entry forms of the
// TM TS programming model.
type EntryKind int

const (
	// EntryAtomic bodies run speculatively and may re-execute; they must
	// be transaction-safe.
	EntryAtomic EntryKind = iota
	// EntrySynchronized bodies run serially and irrevocably; irrevocable
	// actions are permitted there.
	EntrySynchronized
)

// AtomicEntry reports whether call passes a critical-section body to the
// TM engine, returning the body argument and whether it runs atomically
// or serially. Recognized entry points:
//
//	(*tm.Engine).Atomic(th, fn)        (*tle.Mutex).Do(th, body)
//	(*tm.Engine).Synchronized(th, fn)  (*tle.Mutex).Await(th, cv, d, body)
func (pkg *Package) AtomicEntry(call *ast.CallExpr) (body ast.Expr, kind EntryKind, ok bool) {
	fn := pkg.FuncOf(call)
	if fn == nil {
		return nil, 0, false
	}
	arg := -1
	kind = EntryAtomic
	switch {
	case IsMethod(fn, PkgTM, "Engine", "Atomic"):
		arg = 1
	case IsMethod(fn, PkgTM, "Engine", "Synchronized"):
		arg, kind = 1, EntrySynchronized
	case IsMethod(fn, PkgTLE, "Mutex", "Do"):
		arg = 1
	case IsMethod(fn, PkgTLE, "Mutex", "Await"):
		arg = 3
	default:
		return nil, 0, false
	}
	if arg >= len(call.Args) {
		return nil, 0, false
	}
	return call.Args[arg], kind, true
}

// BodyFunc resolves a critical-section body expression to syntax: either a
// function literal or a declared function with a body in the loaded
// program. Bodies passed through variables resolve to nothing (nil, nil,
// nil) and are skipped — the dynamic checkers still cover them.
func (pkg *Package) BodyFunc(e ast.Expr) (*Package, *ast.FuncLit, *ast.FuncDecl) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return pkg, e, nil
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			if dpkg, decl := pkg.Prog.DeclOf(fn); decl != nil {
				return dpkg, nil, decl
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if dpkg, decl := pkg.Prog.DeclOf(fn); decl != nil {
				return dpkg, nil, decl
			}
		}
	}
	return nil, nil, nil
}

// IsTxType reports whether t is the transactional access interface tm.Tx
// (or the gotle.Tx alias).
func IsTxType(t types.Type) bool { return IsNamed(t, PkgTM, "Tx") }

// IsAddrType reports whether t is a simulated-heap address memseg.Addr
// (or the gotle.Addr alias).
func IsAddrType(t types.Type) bool { return IsNamed(t, PkgMemseg, "Addr") }

// IsTxMethod reports whether fn is the Tx interface method with the given
// name (Load, Store, Free, NoQuiesce, Defer, Retry, ...).
func IsTxMethod(fn *types.Func, name string) bool { return IsMethod(fn, PkgTM, "Tx", name) }

// IsFreeCall reports whether fn releases simulated-heap memory:
// Tx.Free, Engine.Free, or Engine.FreeTM.
func IsFreeCall(fn *types.Func) bool {
	return IsTxMethod(fn, "Free") ||
		IsMethod(fn, PkgTM, "Engine", "Free") ||
		IsMethod(fn, PkgTM, "Engine", "FreeTM")
}

// IsTicketWait reports whether fn is wal.Ticket.Wait, the durability
// rendezvous that blocks until a record is covered by a group-commit
// fsync. txsafe flags it inside critical sections as a wait; hotalloc
// trusts it as allocation-free.
func IsTicketWait(fn *types.Func) bool {
	return IsMethod(fn, PkgWAL, "Ticket", "Wait")
}

// IsCondMethod reports whether fn is the condvar.Cond method with the
// given name.
func IsCondMethod(fn *types.Func, name string) bool {
	return IsMethod(fn, PkgCondvar, "Cond", name)
}

// RuntimePkgs lists the TM stack's own implementation packages. The
// engine internals legitimately use goroutines, channels and native sync
// (the serial lock, semaphores, epoch slots), so analyzers treat calls
// into these packages as opaque trusted primitives rather than walking
// their bodies.
var RuntimePkgs = map[string]bool{
	"gotle":                    true,
	PkgTM:                      true,
	PkgTLE:                     true,
	PkgCondvar:                 true,
	PkgMemseg:                  true,
	"gotle/internal/stm":       true,
	"gotle/internal/htm":       true,
	"gotle/internal/epoch":     true,
	"gotle/internal/sema":      true,
	"gotle/internal/spinwait":  true,
	"gotle/internal/stats":     true,
	"gotle/internal/abortsig":  true,
	"gotle/internal/chaos":     true,
	"gotle/internal/tmclock":   true,
	"gotle/internal/tmlog":     true,
	"gotle/internal/lockcheck": true,
	"gotle/internal/linearize": true,
	"gotle/internal/histo":     true,
}

// IsRuntimeFn reports whether fn belongs to the trusted TM runtime.
func IsRuntimeFn(fn *types.Func) bool {
	return fn.Pkg() != nil && RuntimePkgs[fn.Pkg().Path()]
}

// DeferSkips returns the set of function literals within root that are
// passed to Tx.Defer. Deferred actions run after commit, outside the
// transaction, and are the engine's sanctioned escape hatch for
// irrevocable effects — the transactional analyzers must not walk into
// them.
func DeferSkips(pkg *Package, root ast.Node) map[*ast.FuncLit]bool {
	var skips map[*ast.FuncLit]bool
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := pkg.FuncOf(call); fn == nil || !IsTxMethod(fn, "Defer") {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				if skips == nil {
					skips = make(map[*ast.FuncLit]bool)
				}
				skips[lit] = true
			}
		}
		return true
	})
	return skips
}

// TrailString renders a call trail as " (reached via f → g)" for
// diagnostics, or "" for findings directly inside the body.
func TrailString(trail []*types.Func) string {
	if len(trail) == 0 {
		return ""
	}
	names := make([]string, len(trail))
	for i, fn := range trail {
		names[i] = fn.FullName()
	}
	return " (reached via " + strings.Join(names, " → ") + ")"
}
