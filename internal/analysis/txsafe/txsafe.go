// Package txsafe implements the critical-section safety analyzer: what may
// a section call or wait on. It is the static substitute for GCC's TM TS
// rule that an atomic block may only call transaction-safe code (PAPER.md
// Section II.B), for the progress half of that rule the compiler never
// checked (the Listing 3 wait, Section V), and for the contract of the
// proposed TM.NoQuiesce API (Section IV.B).
//
// An atomic body may re-execute after an abort, and its effects must be
// confined to what the undo log can revert: Tx operations and deferred
// actions. txsafe makes one transitive walk per critical-section body
// (like the compiler's call-graph check) and classifies each site it
// reaches:
//
//   - wait: channel sends, receives, select and range over a channel,
//     time.Sleep/After/Tick, native sync waits (Mutex.Lock, WaitGroup.Wait,
//     Cond.Wait), condvar.Cond.Wait and wal.Ticket.Wait. Inside an atomic
//     body such a wait can never be satisfied under elision — the
//     transaction cannot observe the concurrent update it waits for — and
//     inside a Synchronized body it stalls every policy behind the global
//     serial lock. Flagged in both entry kinds.
//   - io: file, network and buffered I/O (os, net, syscall, bufio, io):
//     the syscall blocks the transaction and re-fires on every retry.
//   - irrevocable: go statements, close, console and log output, the rest
//     of native sync and sync/atomic writes, runtime.Gosched, immediate
//     condvar wakeups, and the TM calls that panic or block inside a
//     transaction (nested Engine.Synchronized, Mutex.Await,
//     Thread.Release).
//
// io and irrevocable sites are flagged only in atomic bodies: Synchronized
// bodies run serially and irrevocably and are their sanctioned home. Each
// site gets one diagnostic; a channel send whose payload is a Tx or a TM
// address names that hazard too.
//
// The same walk collects an atomic body's Tx.NoQuiesce calls and the frees
// and address publications in its extent. Skipping quiescence is only
// sound for a transaction that does not privatize: NoQuiesce in a
// transaction that also frees TM memory (Listing 1) or publishes a TM
// address where other transactions can reach it (Listing 2) is flagged,
// and a NoQuiesce statement of the body itself gets a fix that drops the
// hint. The check is conservative: a body that frees only on branches
// where it does not skip quiescence (the engine also quiesces every
// freeing transaction) is still flagged and carries an allow explaining
// the guard.
//
// Escape hatches: run the work in a Tx.Defer action (post-commit), move it
// into an Engine.Synchronized block (serial-irrevocable) or out of the
// section, or suppress a single site with //gotle:allow txsafe and a
// written justification.
package txsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// Analyzer is the txsafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "txsafe",
	Doc:  "flag what a critical section may not call or wait on, and NoQuiesce in privatizing transactions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, e := range analysis.AllEntries(pass.Pkg) {
		w := &walker{pass: pass, e: e, atomic: e.Kind == analysis.EntryAtomic}
		v := &tmflow.Visitor{Prog: pass.Prog, Opaque: analysis.IsRuntimeFn, Visit: w.visit}
		v.Walk(e.BodyPkg, e.Body())
		w.reportNoQuiesce()
	}
	return nil
}

// A walker checks one critical-section body and everything it reaches.
type walker struct {
	pass   *analysis.Pass
	e      *analysis.Entry
	atomic bool

	// The privatization evidence of an atomic body's extent.
	noq           []*ast.CallExpr
	free, publish string // trail of the first free / publication
	freed, pub    bool
}

func (w *walker) visit(pkg *analysis.Package, n ast.Node, trail []*types.Func) bool {
	via := analysis.TrailString(trail)
	switch n := n.(type) {
	case *ast.GoStmt:
		if w.atomic {
			w.report(n.Pos(), "go statement", "a spawned goroutine cannot be rolled back", via)
		}
	case *ast.SendStmt:
		why := waitWhy
		if t := pkg.Info.Types[n.Value].Type; t != nil && w.atomic {
			if analysis.IsTxType(t) {
				why += "; and the transaction handle sent on a channel is stale once this block commits"
			} else if analysis.IsAddrType(t) {
				why += "; and the TM address sent on a channel is published before the transaction commits"
			}
		}
		w.wait(n.Pos(), "channel send", why, via)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			w.wait(n.Pos(), "channel receive", "", via)
		}
	case *ast.SelectStmt:
		w.wait(n.Pos(), "select", "", via)
	case *ast.RangeStmt:
		if t := pkg.Info.Types[n.X].Type; t != nil {
			if _, ok := types.Unalias(t.Underlying()).(*types.Chan); ok {
				w.wait(n.Pos(), "range over a channel", "", via)
			}
		}
	case *ast.AssignStmt:
		// A TM address stored into a global or a field/element reaches
		// other transactions: the extent publishes (Listing 2).
		// Transactional relinking via Tx.Store stays inside TM memory and
		// does not count.
		for i, lhs := range n.Lhs {
			rhs := analysis.AssignedValue(n, i)
			if rhs == nil || w.pub || !publishes(pkg, lhs) {
				continue
			}
			if t := pkg.Info.Types[rhs].Type; t != nil && analysis.IsAddrType(t) {
				w.pub, w.publish = true, via
			}
		}
	case *ast.CallExpr:
		w.call(pkg, n, trail, via)
	}
	return true
}

func (w *walker) call(pkg *analysis.Package, call *ast.CallExpr, trail []*types.Func, via string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && w.atomic {
			w.report(call.Pos(), "close of a channel", "channel effects are irrevocable", via)
			return
		}
	}
	fn := pkg.FuncOf(call)
	if fn == nil {
		return
	}
	if w.atomic {
		switch {
		case analysis.IsMethod(fn, analysis.PkgTM, "Engine", "Synchronized"):
			w.report(call.Pos(), "Engine.Synchronized", "it panics at run time; restructure so the serial section is entered at top level", via)
			return
		case analysis.IsMethod(fn, analysis.PkgTLE, "Mutex", "Await"):
			w.report(call.Pos(), "Mutex.Await", "the condition wait would run inside the enclosing transaction; call Await at top level and use Tx.Retry in the body", via)
			return
		case analysis.IsMethod(fn, analysis.PkgTM, "Thread", "Release"):
			w.report(call.Pos(), "Thread.Release", "it panics at run time", via)
			return
		case analysis.IsCondMethod(fn, "Signal") || analysis.IsCondMethod(fn, "Broadcast"):
			d := analysis.Diagnostic{
				Pos: call.Pos(),
				Message: fmt.Sprintf("calls %s inside an atomic block: an immediate wakeup escapes an uncommitted transaction; use %sTx, which defers the wakeup to commit%s",
					fn.FullName(), fn.Name(), via),
			}
			if fix, ok := commitWakeupFix(w.e, pkg, call, fn, trail); ok {
				d.Fixes = []analysis.SuggestedFix{fix}
			}
			w.pass.Report(d)
			return
		case analysis.IsTxMethod(fn, "NoQuiesce"):
			w.noq = append(w.noq, call)
			return
		case analysis.IsFreeCall(fn):
			if !w.freed {
				w.freed, w.free = true, via
			}
			return
		}
	}
	h, ok := classify(fn)
	if !ok {
		return
	}
	if h.class == classWait {
		w.wait(call.Pos(), h.what, h.why, via)
	} else if w.atomic {
		w.report(call.Pos(), h.what, h.why, via)
	}
}

// Why a wait inside each kind of section is a hazard.
const (
	waitWhy       = "an in-transaction wait can never be satisfied under elision — the transaction cannot observe the concurrent update it waits for (Listing 3)"
	serialWaitWhy = "the serial section holds the global lock while waiting, stalling every policy behind it (hoist the wait out of the section)"
)

// wait flags a wait-class site, in either kind of section. why overrides
// the generic atomic-body hazard; a Synchronized body always gets the
// serial-lock one.
func (w *walker) wait(pos token.Pos, what, why, via string) {
	switch {
	case !w.atomic:
		why = serialWaitWhy
	case why == "":
		why = waitWhy
	}
	w.report(pos, what, why, via)
}

func (w *walker) report(pos token.Pos, what, why, via string) {
	in := "inside an atomic block"
	if !w.atomic {
		in = "inside a Synchronized block"
	}
	w.pass.Reportf(pos, "%s %s: %s%s", what, in, why, via)
}

// reportNoQuiesce flags every NoQuiesce of a transaction whose extent
// frees or publishes TM memory.
func (w *walker) reportNoQuiesce() {
	var msg string
	switch {
	case w.freed:
		msg = "Tx.NoQuiesce in a transaction that also frees TM memory" + w.free + ": privatizing transactions must quiesce or a doomed reader touches recycled memory (Listing 1)"
	case w.pub:
		msg = "Tx.NoQuiesce in a transaction that also publishes TM addresses" + w.publish + ": readers of the published pointer race the skipped quiescence fence (Listing 2)"
	default:
		return
	}
	for _, call := range w.noq {
		d := analysis.Diagnostic{Pos: call.Pos(), Message: msg}
		// When the call is a statement of the entry body itself, deleting
		// it restores the default (safe) quiescent commit.
		if stmt := noQuiesceStmt(w.e.Body(), call); stmt != nil {
			d.Fixes = []analysis.SuggestedFix{{
				Message: "drop the NoQuiesce hint and take the quiescence fence",
				Edits:   []analysis.TextEdit{analysis.DeleteStmtEdit(w.pass.Prog.Fset, stmt)},
			}}
		}
		w.pass.Report(d)
	}
}

// noQuiesceStmt finds the ExprStmt of body whose expression is exactly
// call; a NoQuiesce call in any other position (argument, condition, a
// callee's body) has no statement to delete.
func noQuiesceStmt(body *ast.BlockStmt, call *ast.CallExpr) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if es, ok := n.(*ast.ExprStmt); ok && ast.Unparen(es.X) == call {
			found = es
			return false
		}
		return found == nil
	})
	return found
}

// publishes reports whether an assignment target makes a value visible
// outside the walked function: a package-level variable, or any field,
// element or pointee (treated as shared: a purely local scratch struct is
// rare enough that an allow documents it better than silent acceptance).
func publishes(pkg *analysis.Package, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := pkg.Info.Uses[l].(*types.Var)
		return ok && pkg.IsGlobal(v)
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// commitWakeupFix rewrites cv.Signal() to cv.SignalTx(tx) (and Broadcast
// to BroadcastTx with tx prepended) when the call sits directly in the
// entry body — where the body's Tx parameter is in scope by name. Calls
// reached through a callee (non-empty trail) have no tx identifier to
// splice in and get no automatic fix.
func commitWakeupFix(e *analysis.Entry, pkg *analysis.Package, call *ast.CallExpr, fn *types.Func, trail []*types.Func) (analysis.SuggestedFix, bool) {
	if len(trail) > 0 || pkg != e.BodyPkg {
		return analysis.SuggestedFix{}, false
	}
	txv := e.TxParam()
	if txv == nil || txv.Name() == "_" || txv.Name() == "" {
		return analysis.SuggestedFix{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	edits := []analysis.TextEdit{{
		Pos: sel.Sel.Pos(), End: sel.Sel.End(), NewText: fn.Name() + "Tx",
	}}
	if len(call.Args) == 0 {
		edits = append(edits, analysis.TextEdit{Pos: call.Rparen, End: call.Rparen, NewText: txv.Name()})
	} else {
		edits = append(edits, analysis.TextEdit{Pos: call.Args[0].Pos(), End: call.Args[0].Pos(), NewText: txv.Name() + ", "})
	}
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("defer the wakeup to commit: %s → %sTx(%s, ...)", fn.Name(), fn.Name(), txv.Name()),
		Edits:   edits,
	}, true
}

// A class says where a call is a hazard: a wait in every critical
// section, io and irrevocable calls in atomic bodies only.
type class uint8

const (
	classIrrevocable class = iota
	classWait
	classIO
)

// A hazard is one external call's entry in the table.
type hazard struct {
	class class
	what  string // the call, as the diagnostic names it
	why   string // why it is a hazard in an atomic body ("" for a wait: the generic reason)
}

const (
	ioWhy        = "the syscall blocks the transaction and re-fires on every retry (move it after commit via Tx.Defer)"
	timedWhy     = "timed blocking inside a transaction cannot be rolled back and stalls every concurrent transaction"
	nativeWhy    = "native locking bypasses the TM; elide the lock (tle.Mutex) or go irrevocable (Engine.Synchronized)"
	waitGroupWhy = "WaitGroup operations are irrevocable and double-count when the transaction re-executes"
	syncCondWhy  = "native sync.Cond cannot participate in transactions; use the transaction-friendly condvar package"
)

// classify is the table of calls no critical section may make freely,
// all of them outside the module except wal.Ticket.Wait and
// condvar.Cond.Wait. It is an explicit denylist: a call it does not name
// is not a hazard.
func classify(fn *types.Func) (hazard, bool) {
	if analysis.IsTicketWait(fn) {
		return hazard{classWait, "wal.Ticket.Wait blocks on the group-commit fsync", ""}, true
	}
	if analysis.IsCondMethod(fn, "Wait") {
		return hazard{classWait, "condvar.Cond.Wait parks the goroutine", "a transaction that waits holds its speculative state while blocked, wherever the wait sits; observe the predicate, call Tx.Retry, and let Mutex.Await wait after rollback"}, true
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return hazard{}, false
	}
	path, name := pkg.Path(), fn.Name()
	_, recv := analysis.RecvType(fn)
	calls := "calls " + fn.FullName()
	switch {
	case path == "os" && recv == "File":
		return hazard{classIO, "os.File." + name + " issues a file I/O syscall", ioWhy}, true
	case path == "os" || strings.HasPrefix(path, "os/") ||
		path == "net" || strings.HasPrefix(path, "net/") ||
		path == "syscall" || path == "io/ioutil" || path == "bufio" ||
		path == "database/sql":
		return hazard{classIO, calls, ioWhy}, true
	case path == "io":
		switch name {
		case "ReadFull", "ReadAll", "Copy", "CopyN", "CopyBuffer", "WriteString":
			return hazard{classIO, calls, ioWhy}, true
		}
	case path == "fmt" && (strings.HasPrefix(name, "Print") ||
		strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Scan") ||
		strings.HasPrefix(name, "Fscan")):
		return hazard{classIrrevocable, calls, "console I/O is irrevocable and would repeat on every re-execution (use Tx.Defer for post-commit logging, Section VI.c)"}, true
	case path == "log":
		return hazard{classIrrevocable, calls, "logging is irrevocable and would repeat on every re-execution (use Tx.Defer for post-commit logging, Section VI.c)"}, true
	case path == "time":
		switch name {
		case "Sleep", "After", "Tick":
			return hazard{classWait, "time." + name + " waits on the wall clock", timedWhy}, true
		case "AfterFunc":
			return hazard{classIrrevocable, calls, timedWhy}, true
		}
	case path == "runtime" && name == "Gosched":
		return hazard{classIrrevocable, calls, "yield/spin-waiting inside an atomic block can never succeed under elision — the transaction cannot observe concurrent updates (Listing 3)"}, true
	case path == "sync":
		switch {
		case (recv == "Mutex" || recv == "RWMutex") && (name == "Lock" || name == "RLock"):
			return hazard{classWait, "sync." + recv + "." + name + " can block on a contended lock", nativeWhy}, true
		case recv == "Mutex" || recv == "RWMutex":
			return hazard{classIrrevocable, calls, nativeWhy}, true
		case recv == "WaitGroup" && name == "Wait":
			return hazard{classWait, "sync.WaitGroup.Wait blocks until the group drains", waitGroupWhy}, true
		case recv == "WaitGroup" && (name == "Add" || name == "Done"):
			return hazard{classIrrevocable, calls, waitGroupWhy}, true
		case recv == "Once" && name == "Do":
			return hazard{classIrrevocable, calls, "sync.Once inside a transaction may run its function under speculation that later aborts"}, true
		case recv == "Cond" && name == "Wait":
			return hazard{classWait, "sync.Cond.Wait parks the goroutine", syncCondWhy}, true
		case recv == "Cond":
			return hazard{classIrrevocable, calls, syncCondWhy}, true
		}
	case path == "sync/atomic" && !strings.HasPrefix(name, "Load"):
		return hazard{classIrrevocable, calls, "an atomic write is a non-transactional side effect the undo log cannot revert (and it re-fires on every retry)"}, true
	}
	return hazard{}, false
}
