package tmflow

// Interprocedural allocation summaries: a cached per-function verdict —
// can this function allocate on the Go heap, and where does the first
// allocation come from — computed bottom-up over the `go list -deps` call
// graph the Program loads in dependency order.
//
// The verdict is one bit, so joins are OR and the bottom-up computation is
// trivially monotone. Soundness follows the suite's standing trade-offs:
// the TM runtime's packages (and wal.Ticket.Wait) are trusted primitives
// that allocate nothing, interface and function-value calls are
// conservative (assumed to allocate), and known standard library calls are
// classified by an explicit table (AllocCallDesc) — unknown stdlib calls
// are assumed to allocate.
//
// hotalloc uses the summaries as a walk pruner: a callee whose summary
// says it cannot allocate is opaque to the walk, which is what keeps the
// transitive audit inside the lint budget. Cache hit/miss counters
// (EffectCacheStats, printed by `tmvet -timing`) expose how much the
// memoization saves.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"sync/atomic"

	"gotle/internal/analysis"
)

// An EffectSite records where (and through whom) a summary first picked
// up its allocation, so a caller's diagnostic can explain the origin.
type EffectSite struct {
	Pos  token.Pos
	What string      // human description of the allocation's origin
	Via  *types.Func // callee the allocation is inherited from; nil = direct
}

// An EffectSummary is the interprocedural allocation abstract of one
// function: whether it or any statically resolved callee can allocate.
type EffectSummary struct {
	Allocates bool
	Site      EffectSite // first allocation observed; zero unless Allocates
}

func (s *EffectSummary) add(site EffectSite) {
	if !s.Allocates {
		s.Allocates, s.Site = true, site
	}
}

var (
	effectMu    sync.Mutex
	effectCache = map[*types.Func]*EffectSummary{}

	effectHits   atomic.Uint64
	effectMisses atomic.Uint64
)

// EffectCacheStats reports the summary cache's lifetime hit/miss
// counters. A hit is an EffectOf call answered from the memo table; a
// miss computes the summary (recursively seeding more entries).
func EffectCacheStats() (hits, misses uint64) {
	return effectHits.Load(), effectMisses.Load()
}

// ResetEffectCacheStats zeroes the hit/miss counters (the cache itself is
// kept — entries are keyed by *types.Func identity, so a re-type-checked
// fixture never aliases a stale entry).
func ResetEffectCacheStats() {
	effectHits.Store(0)
	effectMisses.Store(0)
}

// EffectOf returns fn's memoized allocation summary. Functions without a
// body in the loaded program summarize to allocation-free — callers classify
// external calls themselves (AllocCallDesc) before
// consulting the summary. Recursive cycles observe the in-progress
// (empty) summary, which under-approximates exactly once.
func EffectOf(prog *analysis.Program, fn *types.Func) *EffectSummary {
	effectMu.Lock()
	if s, ok := effectCache[fn]; ok {
		effectMu.Unlock()
		effectHits.Add(1)
		return s
	}
	effectMisses.Add(1)
	s := &EffectSummary{}
	effectCache[fn] = s
	effectMu.Unlock()

	if analysis.IsRuntimeFn(fn) {
		return s // trusted primitive: allocates nothing
	}
	pkg, decl := prog.DeclOf(fn)
	if decl == nil || decl.Body == nil {
		return s
	}
	var tmp EffectSummary
	effectsOfBody(prog, pkg, decl.Body, &tmp)
	*s = tmp
	return s
}

// effectsOfBody accumulates body's allocations into s: direct operations,
// plus the summaries of statically resolved module-local callees.
// Function-literal interiors are excluded (they run as their own bodies);
// the literal's creation itself is an allocation unless it is a Tx.Defer
// argument, whose effects are post-commit by design and skipped the same
// way the transactional walkers skip them. Dead blocks contribute
// nothing.
func effectsOfBody(prog *analysis.Program, pkg *analysis.Package, body *ast.BlockStmt, s *EffectSummary) {
	skips := analysis.DeferSkips(pkg, body)
	f := Of(pkg, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if f.Dead(n) {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			if !skips[lit] {
				s.add(EffectSite{Pos: lit.Pos(), What: "function literal (closure) creation"})
			}
			return false
		}
		if desc := AllocNodeDesc(pkg, n); desc != "" {
			s.add(EffectSite{Pos: n.Pos(), What: desc})
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		effectsOfCall(prog, pkg, call, s)
		return true
	})
}

// effectsOfCall classifies one call expression's contribution to s.
func effectsOfCall(prog *analysis.Program, pkg *analysis.Package, call *ast.CallExpr, s *EffectSummary) {
	if isTypeConversion(pkg, call) {
		if desc := ConvAllocDesc(pkg, call); desc != "" {
			s.add(EffectSite{Pos: call.Pos(), What: desc})
		}
		return
	}
	if name, ok := builtinName(pkg, call); ok {
		switch name {
		case "make", "new", "append":
			s.add(EffectSite{Pos: call.Pos(), What: "builtin " + name})
		}
		return
	}
	fn := pkg.FuncOf(call)
	if fn == nil {
		// Function value / method value: the callee is dynamic.
		s.add(EffectSite{Pos: call.Pos(), What: "dynamic call (conservative)"})
		return
	}
	if analysis.IsRuntimeFn(fn) || analysis.IsTicketWait(fn) {
		return // trusted TM primitive, or the fsync rendezvous
	}
	if _, decl := prog.DeclOf(fn); decl != nil && decl.Body != nil {
		// Module-local callee: fold in its bottom-up summary.
		if sub := EffectOf(prog, fn); sub.Allocates {
			s.add(EffectSite{Pos: call.Pos(), What: "calls " + fn.FullName() + " (" + sub.Site.What + ")", Via: fn})
		}
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() != pkg.Path {
		// External function with no loaded body and no explicit
		// classification: assume it allocates (hotalloc's strict default).
		if desc := AllocCallDesc(fn); desc != "" {
			s.add(EffectSite{Pos: call.Pos(), What: desc})
		} else if !AllocFreeExtern(fn) {
			s.add(EffectSite{Pos: call.Pos(), What: "calls " + fn.FullName() + " (unclassified; cannot prove allocation-free)"})
		}
	}
}

// ---- shared direct-effect classifiers ----

// AllocNodeDesc classifies non-call syntax that allocates: composite
// literals with heap-backed storage (slices, maps, address-taken
// structs) and string building. Context-free — the amortized idioms
// (cap-guarded make, append-into-reused-buffer) are recognized by
// hotalloc, which sees the surrounding statements; for summary purposes
// a cold-path allocation still marks the function as allocating.
func AllocNodeDesc(pkg *analysis.Package, n ast.Node) string {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				return "address-taken composite literal escapes to the heap"
			}
		}
	case *ast.CompositeLit:
		if t := pkg.Info.Types[n].Type; t != nil {
			switch types.Unalias(t.Underlying()).(type) {
			case *types.Slice:
				return "slice literal allocates its backing array"
			case *types.Map:
				return "map literal allocates"
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := pkg.Info.Types[n.X].Type; t != nil && types.Unalias(t.Underlying()).String() == "string" {
				if pkg.Info.Types[n].Value == nil { // constant folding is free
					return "string concatenation allocates"
				}
			}
		}
	}
	return ""
}

// AllocCallDesc classifies fn as a known-allocating standard-library
// call, returning a description or "". Functions absent from both this
// table and AllocFreeExtern are treated as allocating by the effect
// summaries (strict default) with a generic "unclassified" description.
func AllocCallDesc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path, name := pkg.Path(), fn.Name()
	switch path {
	case "fmt":
		return "fmt." + name + " formats into a fresh buffer"
	case "errors":
		if name == "New" {
			return "errors.New allocates (hoist to a package-level var)"
		}
	case "strconv":
		if !strings.HasPrefix(name, "Append") && name != "ParseUint" && name != "ParseInt" && name != "Atoi" {
			return "strconv." + name + " allocates its result"
		}
	case "sort":
		if name == "Slice" || name == "SliceStable" {
			return "sort." + name + " allocates (interface + closure)"
		}
	case "strings", "bytes":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN",
			"Fields", "ToUpper", "ToLower", "Map", "Clone", "Concat", "TrimSpace":
			return path + "." + name + " allocates its result"
		}
	}
	return ""
}

// AllocFreeExtern is the allowlist of external calls known not to
// allocate: comparisons, searches, parsers into caller-owned storage,
// and the buffered-I/O methods whose buffers the caller sized up front.
func AllocFreeExtern(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	path, name := pkg.Path(), fn.Name()
	_, recv := analysis.RecvType(fn)
	switch path {
	case "bytes", "strings":
		switch name {
		case "Equal", "EqualFold", "Compare", "Contains", "ContainsRune",
			"HasPrefix", "HasSuffix", "Index", "IndexByte", "IndexRune",
			"LastIndex", "LastIndexByte", "Count", "Cut":
			return true
		}
	case "strconv":
		return strings.HasPrefix(name, "Append") || name == "ParseUint" || name == "ParseInt" || name == "Atoi"
	case "errors":
		return name == "Is" || name == "As" || name == "Unwrap"
	case "bufio":
		switch recv {
		case "Reader":
			switch name {
			case "Read", "ReadByte", "ReadSlice", "ReadLine", "Peek", "Buffered", "Discard":
				return true
			}
		case "Writer":
			switch name {
			case "Write", "WriteString", "WriteByte", "Flush", "Available", "Buffered":
				return true
			}
		}
	case "io":
		return name == "ReadFull" || name == "WriteString"
	case "encoding/binary":
		// The endian Uint/PutUint methods compile to loads and stores.
		return true
	case "hash/crc32":
		return name == "ChecksumIEEE" || name == "Checksum" || name == "Update"
	case "sync", "sync/atomic", "runtime", "math", "math/bits", "unsafe", "time", "os", "net", "syscall":
		// sync/atomic and friends do not allocate; os/net/syscall calls
		// are txsafe findings inside sections, not allocation findings.
		return true
	}
	return false
}

// isTypeConversion reports whether call is a conversion T(x).
func isTypeConversion(pkg *analysis.Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// ConvAllocDesc classifies an allocating conversion: []byte(string),
// string([]byte/[]rune), []rune(string). Conversions of string constants
// are free — the compiler materializes them statically in the patterns
// the hot path uses (bytes.Equal against a literal).
func ConvAllocDesc(pkg *analysis.Package, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	dst := pkg.Info.Types[call.Fun].Type
	src := pkg.Info.Types[call.Args[0]]
	if dst == nil || src.Type == nil {
		return ""
	}
	if src.Value != nil {
		return "" // constant operand: no runtime conversion
	}
	d, s := types.Unalias(dst.Underlying()), types.Unalias(src.Type.Underlying())
	if slice, ok := d.(*types.Slice); ok {
		if isString(s) && isByteOrRune(slice.Elem()) {
			return "string-to-slice conversion copies and allocates"
		}
	}
	if isString(d) {
		if slice, ok := s.(*types.Slice); ok && isByteOrRune(slice.Elem()) {
			return "slice-to-string conversion copies and allocates"
		}
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteOrRune(t types.Type) bool {
	b, ok := types.Unalias(t.Underlying()).(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// builtinName resolves call to a builtin's name.
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
