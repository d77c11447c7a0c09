package tmflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"gotle/internal/analysis"
)

// A SectionUse records the first place a function (directly or through
// callees) enters a critical section on some lock.
type SectionUse struct {
	Lock LockID
	Pos  token.Pos
}

// A Reacquire is one two-phase-locking hazard: on some path, a critical
// section is entered after another critical section has already completed.
// Inside an elided region the completed section's effects are not yet
// visible to other threads, so the paper's Listing 3 failure mode applies.
type Reacquire struct {
	// Prior is a lock whose section completed earlier on the path.
	Prior LockID
	// Next is the lock (re)acquired afterwards.
	Next LockID
	// Pos is where the violating acquire happens in the analyzed body:
	// the nested Do call, or the call into the callee that performs it.
	Pos token.Pos
	// Via is the callee whose summary carries the hazard, nil when the
	// sections are directly in the analyzed body.
	Via *types.Func
}

// A Summary is the interprocedural abstract of one function body: the
// critical sections it (transitively) enters and the two-phase-locking
// hazards on its paths. Summaries are memoized per function and composed
// bottom-up, the way GCC's TM TS checking propagates transaction-safety
// through the call graph.
type Summary struct {
	Sections   []SectionUse
	Reacquires []Reacquire
}

var (
	summaryMu sync.Mutex
	summaries = map[*types.Func]*Summary{}
)

// FuncSummary returns fn's memoized summary. Recursive cycles yield the
// in-progress (empty) summary, which under-approximates exactly once.
func FuncSummary(prog *analysis.Program, fn *types.Func) *Summary {
	summaryMu.Lock()
	if s, ok := summaries[fn]; ok {
		summaryMu.Unlock()
		return s
	}
	s := &Summary{}
	summaries[fn] = s
	summaryMu.Unlock()

	pkg, decl := prog.DeclOf(fn)
	if decl == nil || decl.Body == nil {
		return s
	}
	*s = *summarizeBody(pkg, decl.Body, LockID{})
	return s
}

// EntryFacts analyzes an atomic entry's body. For tle.Mutex entries the
// outer lock is excluded from the completed-set (re-entering the lock you
// hold is a recursive hold, not a release), and — because the whole body
// runs while the outer lock is held — every Reacquire in the result is a
// two-phase-locking violation.
func EntryFacts(e *analysis.Entry) *Summary {
	return summarizeBody(e.BodyPkg, e.Body(), entryOuterLock(e))
}

// entryOuterLock resolves the lock an atomic entry holds for its whole
// extent: the Mutex receiver for Do/Await, or the zero LockID
// for bare Engine.Atomic entries.
func entryOuterLock(e *analysis.Entry) LockID {
	sel, ok := ast.Unparen(e.Call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockID{}
	}
	fn := e.CallPkg.FuncOf(e.Call)
	if fn == nil {
		return LockID{}
	}
	switch {
	case isSectionCall(fn):
		return LockOf(e.CallPkg, nil, sel.X)
	}
	return LockID{}
}

// sectionEvent is one ordered lock-relevant action within a block: a
// direct Mutex.Do/Await call, or a call to a function whose
// summary enters sections.
type sectionEvent struct {
	pos     token.Pos
	lock    LockID // direct section (callee == nil)
	callee  *types.Func
	summary *Summary // callee's summary
}

// summarizeBody runs the completed-set dataflow over body's CFG: the state
// at each point is the set of locks whose critical sections have already
// completed on every event's path. An event that enters a section while
// the set is non-empty is a Reacquire. Events on dead blocks are ignored.
func summarizeBody(pkg *analysis.Package, body *ast.BlockStmt, outer LockID) *Summary {
	f := Of(pkg, body)
	blocks := f.G.Blocks
	events := make([][]sectionEvent, len(blocks))
	for i, b := range blocks {
		if !b.Live {
			continue
		}
		for _, n := range b.Nodes {
			events[i] = append(events[i], sectionEventsOf(pkg, f, n)...)
		}
	}

	// Fixpoint: completed[b] = union over preds; events add the section's
	// key after it returns (Do returning means the elided lock was
	// "released"). Monotone — sets only grow.
	in := make([]map[string]LockID, len(blocks))
	for i := range in {
		in[i] = map[string]LockID{}
	}
	apply := func(state map[string]LockID, ev sectionEvent) {
		if ev.callee != nil {
			for _, su := range ev.summary.Sections {
				if su.Lock.Key != outer.Key || outer.Key == "" {
					state[su.Lock.Key] = su.Lock
				}
			}
			return
		}
		if ev.lock.Key == outer.Key && outer.Key != "" {
			return // recursive hold of the entry's own lock
		}
		state[ev.lock.Key] = ev.lock
	}
	for changed := true; changed; {
		changed = false
		for i, b := range blocks {
			if !b.Live {
				continue
			}
			state := map[string]LockID{}
			for _, p := range b.Preds {
				out := stateAfter(in[p.Index], events[p.Index], apply)
				for k, l := range out {
					state[k] = l
				}
			}
			if len(state) != len(in[i]) {
				in[i] = state
				changed = true
			}
		}
	}

	s := &Summary{}
	seenSection := map[string]bool{}
	seenPos := map[token.Pos]bool{}
	for i, b := range blocks {
		if !b.Live {
			continue
		}
		state := cloneState(in[i])
		for _, ev := range events[i] {
			// Record the sections this body reaches.
			var entered []SectionUse
			if ev.callee == nil {
				entered = []SectionUse{{Lock: ev.lock, Pos: ev.pos}}
			} else {
				for _, su := range ev.summary.Sections {
					entered = append(entered, SectionUse{Lock: su.Lock, Pos: ev.pos})
				}
			}
			for _, su := range entered {
				if su.Lock.Key == outer.Key && outer.Key != "" {
					continue
				}
				if !seenSection[su.Lock.Key] {
					seenSection[su.Lock.Key] = true
					s.Sections = append(s.Sections, su)
				}
			}
			// A callee that is itself 2PL-unsafe taints every call site:
			// executed with any lock held, its internal release-then-acquire
			// violates two-phase locking.
			if ev.callee != nil && len(ev.summary.Reacquires) > 0 && !seenPos[ev.pos] {
				seenPos[ev.pos] = true
				r := ev.summary.Reacquires[0]
				s.Reacquires = append(s.Reacquires, Reacquire{
					Prior: r.Prior, Next: r.Next, Pos: ev.pos, Via: ev.callee,
				})
			}
			// Entering a section with completed sections behind it.
			if len(state) > 0 {
				for _, su := range entered {
					if su.Lock.Key == outer.Key && outer.Key != "" {
						continue
					}
					if seenPos[ev.pos] {
						break
					}
					seenPos[ev.pos] = true
					s.Reacquires = append(s.Reacquires, Reacquire{
						Prior: smallest(state), Next: su.Lock, Pos: ev.pos, Via: ev.callee,
					})
					break
				}
			}
			apply(state, ev)
		}
	}
	sort.Slice(s.Reacquires, func(i, j int) bool { return s.Reacquires[i].Pos < s.Reacquires[j].Pos })
	return s
}

func stateAfter(in map[string]LockID, evs []sectionEvent, apply func(map[string]LockID, sectionEvent)) map[string]LockID {
	state := cloneState(in)
	for _, ev := range evs {
		apply(state, ev)
	}
	return state
}

func cloneState(m map[string]LockID) map[string]LockID {
	out := make(map[string]LockID, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// smallest picks a deterministic representative from the completed set.
func smallest(state map[string]LockID) LockID {
	var best string
	for k := range state {
		if best == "" || k < best {
			best = k
		}
	}
	return state[best]
}

// sectionEventsOf extracts the lock-relevant calls within one block node,
// in source order. Function-literal interiors are skipped: literals run as
// their own bodies (entries, deferred actions) with their own analysis.
func sectionEventsOf(pkg *analysis.Package, f *Func, root ast.Node) []sectionEvent {
	var evs []sectionEvent
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pkg.FuncOf(call)
		if fn == nil {
			return true
		}
		if isSectionCall(fn) {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				evs = append(evs, sectionEvent{pos: call.Pos(), lock: LockOf(pkg, f, sel.X)})
			}
			return true
		}
		if analysis.IsRuntimeFn(fn) {
			return true
		}
		if _, decl := pkg.Prog.DeclOf(fn); decl != nil && decl.Body != nil {
			sum := FuncSummary(pkg.Prog, fn)
			if len(sum.Sections) > 0 || len(sum.Reacquires) > 0 {
				evs = append(evs, sectionEvent{pos: call.Pos(), callee: fn, summary: sum})
			}
		}
		return true
	})
	return evs
}

func isSectionCall(fn *types.Func) bool {
	return analysis.IsMethod(fn, analysis.PkgTLE, "Mutex", "Do") ||
		analysis.IsMethod(fn, analysis.PkgTLE, "Mutex", "Await")
}

// A LockEdge is one "outer lock nests inner section" observation: while
// holding From, some atomic entry enters a section on To at Pos.
type LockEdge struct {
	From, To LockID
	Pos      token.Pos
	Pkg      *analysis.Package
}

// lockGraphKey includes the package count so programs grown incrementally
// (test fixtures added via AddDir) recompute instead of serving stale edges.
type lockGraphKey struct {
	prog  *analysis.Program
	npkgs int
}

var (
	lockGraphMu sync.Mutex
	lockGraphs  = map[lockGraphKey][]LockEdge{}
)

// LockGraph returns the program-wide lock nesting graph: an edge for every
// (outer lock, nested section) pair across all tle.Mutex atomic entries.
// Cycles in this graph are lock-order inversions between critical
// sections — under elision they serialize or deadlock the fallback path.
func LockGraph(prog *analysis.Program) []LockEdge {
	key := lockGraphKey{prog, len(prog.Packages)}
	lockGraphMu.Lock()
	defer lockGraphMu.Unlock()
	if edges, ok := lockGraphs[key]; ok {
		return edges
	}
	edges := []LockEdge{}
	for _, pkg := range prog.Packages {
		for _, e := range analysis.AtomicEntries(pkg) {
			outer := entryOuterLock(e)
			if outer.Key == "" {
				continue
			}
			facts := EntryFacts(e)
			for _, su := range facts.Sections {
				if su.Lock.Key == outer.Key {
					continue
				}
				edges = append(edges, LockEdge{From: outer, To: su.Lock, Pos: su.Pos, Pkg: e.BodyPkg})
			}
		}
	}
	lockGraphs[key] = edges
	return edges
}
