package tmflow

// Protection-domain inference: a whole-program census of shared locations
// (package-level variables and struct fields of module-local types) and the
// synchronization context of every access to them — transactional (and
// under which tle.Mutex), native-mutex, sync/atomic, construction,
// channel-transferred, or plain. The census is the fact layer under the
// transaction-aware race gate, protdom:
// `go test -race` cannot see a plain load racing with an elided critical
// section, because the transactional accesses do not happen on the failing
// interleaving, so the gate has to be static.
//
// The census is seeded from the program's goroutine roots — every `go`
// statement plus one synthetic "program entry" root covering main, init,
// and the exported API surface — and walks each root's statically resolved
// call graph with its synchronization context (in-transaction lock, native
// locks held at the call site), reusing the same memoized bottom-up shape
// as the effect summaries. The TM runtime's own packages are trusted
// primitives and are neither walked nor censused, with one deliberate
// exception: memseg, the simulated heap, is exactly the TM/non-TM boundary
// the paper's Section IV hazards live on, so the gate audits it.
//
// Standing approximations, shared with the rest of the suite: locations
// are field- and variable-granular (all instances of a struct share one
// location, as in LockOf's field identity); dynamic calls are not walked;
// functions reachable from no root contribute no sites; a type whose
// pointer travels over any channel is classified channel-transferred
// (ownership hand-off discipline) and exempt from the race rules.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"gotle/internal/analysis"
)

// AccessClass is the synchronization context of one access site.
type AccessClass uint8

const (
	// ClassPlain: a raw load or store with no guard the census can see.
	ClassPlain AccessClass = iota
	// ClassMutex: performed while at least one native sync.Mutex/RWMutex
	// is provably held (CFG must-analysis plus call-site context).
	ClassMutex
	// ClassTx: performed inside a critical-section body (atomic or
	// Synchronized) or a function reachable only through one.
	ClassTx
	// ClassAtomic: performed through a sync/atomic package function.
	ClassAtomic
	// ClassConstruct: a write to a freshly built object (the base local's
	// only definitions are composite literals or new), pre-publication.
	ClassConstruct
)

func (c AccessClass) String() string {
	switch c {
	case ClassPlain:
		return "plain"
	case ClassMutex:
		return "mutex"
	case ClassTx:
		return "tx"
	case ClassAtomic:
		return "atomic"
	case ClassConstruct:
		return "construction"
	}
	return "?"
}

// An Access is one (position, context) access to a location. The same
// source position reached under several roots or contexts merges into one
// Access per (class, guard), accumulating roots.
type Access struct {
	Pos token.Pos
	Pkg *analysis.Package
	// Node is the access expression; Encl is the enclosing CFG block node
	// (statement), which fix builders use for rewrites.
	Node ast.Node
	Encl ast.Node

	Read  bool
	Write bool
	Class AccessClass
	// Guard describes the protection: the elided lock's pretty name for
	// ClassTx, the sorted native lock keys for ClassMutex, else "".
	Guard string
	// GuardKeys holds the canonical lock keys (tx: one elided-lock key;
	// mutex: every native lock held).
	GuardKeys []string
	// SliceExposure marks a subslice of the location escaping to a callee
	// or variable: its elements become plainly accessible wherever the
	// slice flows.
	SliceExposure bool
	// Roots is the set of goroutine roots whose walks reach this site.
	Roots map[int]bool
}

// LocKind distinguishes the two location shapes.
type LocKind uint8

const (
	LocPkgVar LocKind = iota
	LocField
)

// A Location is one censused shared-memory slot: a package-level variable
// or a struct field (all instances collapsed).
type Location struct {
	Obj    *types.Var
	Kind   LocKind
	Pretty string // "Store.wal", "server.totalOps"
	// DeclPath is the import path of the declaring package; analyzers
	// report a location from its declaring package's pass.
	DeclPath string
	DeclPos  token.Pos
	// ChanTransfer marks fields of a struct whose pointer travels over a
	// channel: accesses follow an ownership hand-off discipline the
	// happens-before edges of channel operations make safe.
	ChanTransfer bool

	Accesses []*Access
	byKey    map[string]*Access
	// ownerType is the named struct type declaring a field location.
	ownerType *types.TypeName
}

// sites returns the non-construction accesses of class cl.
func (l *Location) sites(cl AccessClass) []*Access {
	var out []*Access
	for _, a := range l.Accesses {
		if a.Class == cl {
			out = append(out, a)
		}
	}
	return out
}

// TxSites, MutexSites, AtomicSites, PlainSites expose the per-class views
// the analyzers rank and report on.
func (l *Location) TxSites() []*Access     { return l.sites(ClassTx) }
func (l *Location) MutexSites() []*Access  { return l.sites(ClassMutex) }
func (l *Location) AtomicSites() []*Access { return l.sites(ClassAtomic) }
func (l *Location) PlainSites() []*Access  { return l.sites(ClassPlain) }

// HasWrite reports whether any non-construction site writes.
func (l *Location) HasWrite() bool {
	for _, a := range l.Accesses {
		if a.Write && a.Class != ClassConstruct {
			return true
		}
	}
	return false
}

// A GoRoot is one goroutine-creation point: index 0 is the synthetic
// program-entry root (main, init, and the exported API surface); every
// other root is one `go` statement.
type GoRoot struct {
	Index int
	Pos   token.Pos // NoPos for the entry root
	Pkg   *analysis.Package
	Desc  string
	// Multi marks a root that can have several live instances: its go
	// statement sits in a loop, or its spawner is itself multi-instance.
	Multi bool

	inLoop   bool
	spawners map[int]bool
	startPkg *analysis.Package
	start    *ast.BlockStmt
}

// A ProtCensus is the complete protection-domain fact base for one
// program state (cached per package count, like LockGraph).
type ProtCensus struct {
	Locations []*Location
	Roots     []*GoRoot

	byObj map[*types.Var]*Location
}

type censusKey struct {
	prog  *analysis.Program
	npkgs int
}

var (
	censusMu sync.Mutex
	censuses = map[censusKey]*ProtCensus{}
)

// CensusOf returns the (cached) protection-domain census of prog.
func CensusOf(prog *analysis.Program) *ProtCensus {
	key := censusKey{prog, len(prog.Packages)}
	censusMu.Lock()
	defer censusMu.Unlock()
	if c, ok := censuses[key]; ok {
		return c
	}
	b := newCensusBuilder(prog)
	c := b.build()
	censuses[key] = c
	return c
}

// censusScope reports whether pkg's bodies are walked and its locations
// censused. The TM runtime's packages are trusted primitives — their
// deliberate lock-free internals would drown the serving-stack signal —
// except memseg: the simulated heap is shared by transactional and
// non-transactional accessors by design, which makes it the one runtime
// package whose access disciplines the race gate must see.
func censusScope(path string) bool {
	if path == analysis.PkgMemseg {
		return true
	}
	return !analysis.RuntimePkgs[path]
}

// selfGuardedType reports whether a field or variable of type t carries
// its own synchronization and is excluded from the census: native sync
// primitives, typed atomics, channels, and the TM runtime's own types
// (tle.Mutex, condvar.Cond, stats blocks).
func selfGuardedType(t types.Type) bool {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "sync" || path == "sync/atomic" {
		return true
	}
	return analysis.RuntimePkgs[path] && path != analysis.PkgMemseg
}

// Shared reports whether l is reachable from more than one goroutine:
// accesses from two or more distinct roots, or from any multi-instance
// root (several live copies of one spawn site race each other).
func (c *ProtCensus) Shared(l *Location) bool {
	roots := map[int]bool{}
	for _, a := range l.Accesses {
		for r := range a.Roots {
			if c.Roots[r].Multi {
				return true
			}
			roots[r] = true
		}
	}
	return len(roots) >= 2
}

// goPlain returns l's plain sites reached from a non-entry root or from a
// multi-instance root — the accesses that can genuinely race.
func (c *ProtCensus) goPlain(l *Location) []*Access {
	var out []*Access
	for _, a := range l.PlainSites() {
		for r := range a.Roots {
			if r != 0 || c.Roots[r].Multi {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// A Discipline is the inferred guarding verdict for one location.
type Discipline struct {
	// Label is the human-readable discipline: "tx(<lock>)",
	// "mutex(<lock>)", "atomic", "read-only", "confined",
	// "construction-only", "channel-transfer", "published-at-init",
	// "unguarded" (plain-only field traffic, left to the race detector),
	// or a "mixed(...)" form when no single discipline covers the sites.
	Label string
	// Consistent is false when the location's sites do not agree on a
	// guard — the protdom flag conditions.
	Consistent bool
}

// DisciplineOf classifies l's access sites into one guarding discipline.
// protdom reports every inconsistent verdict, the mixed(tx+plain) and
// mixed(atomic+plain) ones with messages of their own.
func (c *ProtCensus) DisciplineOf(l *Location) Discipline {
	if l.ChanTransfer {
		return Discipline{"channel-transfer", true}
	}
	tx, mu, at, pl := l.TxSites(), l.MutexSites(), l.AtomicSites(), l.PlainSites()
	if len(tx)+len(mu)+len(at)+len(pl) == 0 {
		return Discipline{"construction-only", true}
	}
	if !l.HasWrite() {
		return Discipline{"read-only", true}
	}
	if !c.Shared(l) {
		return Discipline{"confined", true}
	}
	switch {
	case len(tx) > 0 && len(pl) > 0:
		return Discipline{"mixed(tx+plain)", false}
	case len(at) > 0 && len(pl) > 0:
		return Discipline{"mixed(atomic+plain)", false}
	case len(tx) > 0 && len(mu) > 0:
		return Discipline{"mixed(tx+mutex)", false}
	case len(tx) > 0:
		return Discipline{"tx(" + guardOf(tx) + ")", true}
	case len(at) > 0 && len(mu) == 0:
		return Discipline{"atomic", true}
	case len(mu) > 0 && len(pl) == 0:
		if g, ok := commonLock(mu); ok {
			return Discipline{"mutex(" + g + ")", true}
		}
		return Discipline{"mixed(disjoint-locks)", false}
	}
	// Only plain (and possibly mutex) sites remain. Raw accesses confined
	// to the entry root before goroutines exist are the init phase of a
	// publish-then-share lifecycle; raw traffic from spawned goroutines is
	// not.
	goRaw := c.goPlain(l)
	if len(goRaw) == 0 {
		if len(mu) > 0 {
			if g, ok := commonLock(mu); ok {
				return Discipline{"mutex(" + g + ") after init", true}
			}
			return Discipline{"mixed(disjoint-locks)", false}
		}
		return Discipline{"published-at-init", true}
	}
	for _, a := range goRaw {
		if !a.Write {
			continue
		}
		// Flag the unguarded write only when there is evidence of a
		// partial discipline to disagree with — some site takes a guard —
		// or the location is a package variable (one instance, no
		// aliasing doubt). A plain-only struct field written from several
		// goroutines is usually one instance per goroutine (scratch
		// buffers, per-connection state), which the field-granular census
		// cannot tell apart; and a genuinely shared plain/plain race is
		// exactly what `go test -race` already catches, because both
		// sides execute on the failing interleaving. The static gate's
		// charter is the races -race cannot see.
		if len(mu) > 0 || l.Kind == LocPkgVar {
			return Discipline{"mixed(unguarded-write)", false}
		}
		return Discipline{"unguarded", true}
	}
	if len(mu) > 0 {
		// Guarded writers elsewhere cannot protect these raw readers.
		return Discipline{"mixed(mutex+raw-read)", false}
	}
	// Raw reads from goroutines with only entry-phase raw writes.
	return Discipline{"published-at-init", true}
}

// guardOf summarizes the guard names of a site list (one representative).
func guardOf(sites []*Access) string {
	seen := map[string]bool{}
	var names []string
	for _, a := range sites {
		if a.Guard != "" && !seen[a.Guard] {
			seen[a.Guard] = true
			names = append(names, a.Guard)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "?"
	}
	return strings.Join(names, "+")
}

// commonLock intersects the native lock keys held across every mutex
// site, returning a pretty name for the common guard.
func commonLock(sites []*Access) (string, bool) {
	if len(sites) == 0 {
		return "", false
	}
	common := map[string]bool{}
	for _, k := range sites[0].GuardKeys {
		common[k] = true
	}
	for _, a := range sites[1:] {
		held := map[string]bool{}
		for _, k := range a.GuardKeys {
			held[k] = true
		}
		for k := range common {
			if !held[k] {
				delete(common, k)
			}
		}
	}
	var keys []string
	for k := range common {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return prettyLockKey(keys[0]), true
}

// prettyLockKey strips the canonical key's kind prefix for diagnostics.
func prettyLockKey(key string) string {
	for _, p := range []string{"field ", "var "} {
		if s, ok := strings.CutPrefix(key, p); ok {
			return s
		}
	}
	return key
}

// CensusStats summarizes the census for EXPERIMENTS.md and
// `tmvet -protdom-census`.
type CensusStats struct {
	Locations    int
	Shared       int
	Roots        int
	MultiRoots   int
	ByDiscipline map[string]int
}

// Stats computes the census summary. Mixed labels are folded to their
// family so the table stays readable.
func (c *ProtCensus) Stats() CensusStats {
	s := CensusStats{Roots: len(c.Roots), ByDiscipline: map[string]int{}}
	for _, l := range c.Locations {
		s.Locations++
		if c.Shared(l) {
			s.Shared++
		}
		label := c.DisciplineOf(l).Label
		if i := strings.IndexByte(label, '('); i > 0 && !strings.HasPrefix(label, "mixed(") {
			label = label[:i]
		}
		s.ByDiscipline[label]++
	}
	for _, r := range c.Roots {
		if r.Multi {
			s.MultiRoots++
		}
	}
	return s
}

// locationFor returns (creating on first use) the census slot for v.
func (c *ProtCensus) locationFor(v *types.Var, kind LocKind, owner string) *Location {
	if l, ok := c.byObj[v]; ok {
		return l
	}
	pretty := v.Name()
	if owner != "" {
		pretty = owner + "." + v.Name()
	} else if v.Pkg() != nil {
		pretty = shortPath(v.Pkg().Path()) + "." + v.Name()
	}
	l := &Location{
		Obj: v, Kind: kind, Pretty: pretty,
		DeclPath: v.Pkg().Path(), DeclPos: v.Pos(),
		byKey: map[string]*Access{},
	}
	c.byObj[v] = l
	c.Locations = append(c.Locations, l)
	return l
}

func shortPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// SortedAccesses returns l's class-cl accesses in position order,
// optionally writes only.
func (l *Location) SortedAccesses(cl AccessClass, writesOnly bool) []*Access {
	var out []*Access
	for _, a := range l.sites(cl) {
		if writesOnly && !a.Write {
			continue
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

func (c *ProtCensus) finalize() {
	sort.Slice(c.Locations, func(i, j int) bool {
		if c.Locations[i].DeclPath != c.Locations[j].DeclPath {
			return c.Locations[i].DeclPath < c.Locations[j].DeclPath
		}
		return c.Locations[i].Pretty < c.Locations[j].Pretty
	})
	for _, l := range c.Locations {
		sort.Slice(l.Accesses, func(i, j int) bool { return l.Accesses[i].Pos < l.Accesses[j].Pos })
	}
}

// RootDesc names root i for diagnostics.
func (c *ProtCensus) RootDesc(i int) string {
	if i < 0 || i >= len(c.Roots) {
		return fmt.Sprintf("root#%d", i)
	}
	return c.Roots[i].Desc
}
