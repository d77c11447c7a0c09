package tmflow

// Interprocedural effect summaries: a cached per-function lattice of
// {allocates, writes-response, waits-ticket} effects, computed bottom-up
// over the `go list -deps` call graph the Program loads in dependency
// order — the same memoization shape as FuncSummary, extended with the
// serving-path effects the server's zero-allocation and durability
// contracts made load-bearing.
//
// The lattice is a powerset of three bits, so joins are bitwise OR and the
// bottom-up computation is trivially monotone. Soundness follows the
// suite's standing trade-offs: the TM runtime's packages are trusted
// primitives (no effects), interface and function-value calls are
// conservative (assumed to allocate), and known standard library calls are
// classified by an explicit table (AllocCallDesc) — unknown stdlib calls
// are assumed to allocate.
//
// The analyzers built on the summaries (ackorder, hotalloc) use them as
// walk pruners and call-site facts: a callee whose summary lacks the
// effect of interest is opaque to the walk, which is what keeps the
// whole-program passes inside the lint budget. Cache hit/miss counters
// (EffectCacheStats) expose how much the memoization saves; the numbers
// are recorded in EXPERIMENTS.md.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"sync/atomic"

	"gotle/internal/analysis"
)

// Effect is a bitset over the three serving-path effects.
type Effect uint8

const (
	// EffAllocates: the function can allocate on the Go heap.
	EffAllocates Effect = 1 << iota
	// EffWritesResponse: the function can write response bytes toward a
	// client connection (bufio.Writer/net.Conn writes, io.WriteString).
	EffWritesResponse
	// EffWaitsTicket: the function waits a wal.Ticket (directly or
	// through a callee), resolving a mutation's durability.
	EffWaitsTicket
)

// String renders the set as "allocates|writes-response|waits-ticket".
func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	var parts []string
	for _, p := range []struct {
		bit  Effect
		name string
	}{
		{EffAllocates, "allocates"},
		{EffWritesResponse, "writes-response"},
		{EffWaitsTicket, "waits-ticket"},
	} {
		if e&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "|")
}

// An EffectSite records where (and through whom) a summary first picked
// up one effect bit, so a caller's diagnostic can explain the origin.
type EffectSite struct {
	Pos  token.Pos
	What string      // human description of the effect's origin
	Via  *types.Func // callee the effect is inherited from; nil = direct
}

// An EffectSummary is the interprocedural effect abstract of one
// function: the union of its own direct effects and its statically
// resolved callees' summaries.
type EffectSummary struct {
	Effects Effect
	sites   map[Effect]EffectSite // first site observed per bit
}

// Has reports whether the summary carries every bit of e.
func (s *EffectSummary) Has(e Effect) bool { return s.Effects&e == e }

// Site returns the first recorded origin of effect bit e.
func (s *EffectSummary) Site(e Effect) (EffectSite, bool) {
	site, ok := s.sites[e]
	return site, ok
}

func (s *EffectSummary) add(e Effect, site EffectSite) {
	for bit := EffAllocates; bit <= EffWaitsTicket; bit <<= 1 {
		if e&bit == 0 {
			continue
		}
		s.Effects |= bit
		if s.sites == nil {
			s.sites = make(map[Effect]EffectSite)
		}
		if _, ok := s.sites[bit]; !ok {
			s.sites[bit] = site
		}
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

// EffectOf returns fn's memoized effect summary. Functions without a
// body in the loaded program summarize to no effects — callers classify
// external calls themselves (AllocCallDesc) before
// consulting the summary. Recursive cycles observe the in-progress
// (empty) summary, which under-approximates exactly once, like
// FuncSummary.
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
		return s // trusted primitive: no effects
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

// effectsOfBody accumulates body's effects into s: direct operations,
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
				s.add(EffAllocates, EffectSite{Pos: lit.Pos(), What: "function literal (closure) creation"})
			}
			return false
		}
		if desc := AllocNodeDesc(pkg, n); desc != "" {
			s.add(EffAllocates, EffectSite{Pos: n.Pos(), What: desc})
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
			s.add(EffAllocates, EffectSite{Pos: call.Pos(), What: desc})
		}
		return
	}
	if name, ok := builtinName(pkg, call); ok {
		switch name {
		case "make", "new", "append":
			s.add(EffAllocates, EffectSite{Pos: call.Pos(), What: "builtin " + name})
		}
		return
	}
	fn := pkg.FuncOf(call)
	if fn == nil {
		// Function value / method value: the callee is dynamic.
		s.add(EffAllocates, EffectSite{Pos: call.Pos(), What: "dynamic call (conservative)"})
		return
	}
	if analysis.IsTicketWait(fn) {
		s.add(EffWaitsTicket, EffectSite{Pos: call.Pos(), What: "wal.Ticket.Wait (group-commit fsync rendezvous)"})
		return
	}
	if analysis.IsRuntimeFn(fn) {
		return // trusted TM primitive
	}
	if desc := RespWriteDesc(pkg, call); desc != "" {
		s.add(EffWritesResponse, EffectSite{Pos: call.Pos(), What: desc})
	}
	if _, decl := prog.DeclOf(fn); decl != nil && decl.Body != nil {
		// Module-local callee: fold in its bottom-up summary.
		sub := EffectOf(prog, fn)
		for bit := EffAllocates; bit <= EffWaitsTicket; bit <<= 1 {
			if !sub.Has(bit) {
				continue
			}
			what := "calls " + fn.FullName()
			if site, ok := sub.Site(bit); ok {
				what += " (" + site.What + ")"
			}
			s.add(bit, EffectSite{Pos: call.Pos(), What: what, Via: fn})
		}
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() != pkg.Path {
		// External function with no loaded body and no explicit
		// classification: assume it allocates (hotalloc's strict default).
		if desc := AllocCallDesc(fn); desc != "" {
			s.add(EffAllocates, EffectSite{Pos: call.Pos(), What: desc})
		} else if !AllocFreeExtern(fn) {
			s.add(EffAllocates, EffectSite{Pos: call.Pos(), What: "calls " + fn.FullName() + " (unclassified; cannot prove allocation-free)"})
		}
	}
}

// ---- shared direct-effect classifiers ----

// RespWriteDesc classifies call as a response write toward a client
// connection: Write-family methods on bufio.Writer, Write on net.Conn,
// or io.WriteString. Flush is deliberately excluded — flushing pushes
// bytes already admitted past the durability gate.
func RespWriteDesc(pkg *analysis.Package, call *ast.CallExpr) string {
	fn := pkg.FuncOf(call)
	if fn == nil {
		return ""
	}
	switch {
	case analysis.IsMethod(fn, "bufio", "Writer", "Write"),
		analysis.IsMethod(fn, "bufio", "Writer", "WriteString"),
		analysis.IsMethod(fn, "bufio", "Writer", "WriteByte"):
		return "bufio.Writer." + fn.Name()
	case analysis.IsMethod(fn, "net", "Conn", "Write"),
		analysis.IsMethod(fn, "net", "TCPConn", "Write"):
		return "net.Conn.Write"
	case fn.Pkg() != nil && fn.Pkg().Path() == "io" && fn.Name() == "WriteString":
		return "io.WriteString"
	}
	return ""
}

// AllocNodeDesc classifies non-call syntax that allocates: composite
// literals with heap-backed storage (slices, maps, address-taken
// structs) and string building. Context-free — the amortized idioms
// (cap-guarded make, append-into-reused-buffer) are recognized by
// hotalloc, which sees the surrounding statements; for summary purposes
// a cold-path allocation still marks the function EffAllocates.
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
