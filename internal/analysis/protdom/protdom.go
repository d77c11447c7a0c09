// Package protdom is the protection-domain gate: for every shared
// location the tmflow census finds (package-level variables and struct
// fields reachable from more than one goroutine), it requires a
// consistent guarding discipline — transactional under one tle.Mutex,
// one native mutex, sync/atomic, channel ownership transfer, confinement
// to a single goroutine, or publish-before-spawn initialization. A
// location whose access sites disagree is exactly where elision changes
// program semantics: the "extra" unguarded access that a real lock
// happened to order is the access a speculative critical section races
// with.
//
// Two of the inconsistent disciplines get their own message:
//
//   - mixed(tx+plain): accessed both inside a transaction and raw outside
//     any quiescence barrier — the paper's Listing 1/2 hazard generalized
//     from the heap to every Go-level location. Often benign under a real
//     lock; under an elided one the plain access can observe speculative
//     state, and `go test -race` cannot see it because the transactional
//     side does not execute on the failing interleaving.
//   - mixed(atomic+plain): accessed both through sync/atomic and plainly,
//     which gives none of atomic's guarantees (the heap simulator's word
//     array is the canonical customer: bulk zeroing must be deliberate and
//     documented). Where every plain site is mechanical, `tmvet -fix`
//     promotes them to the matching atomic calls (atomicfix.go).
//
// The rest — unguarded shared writes, raw reads against locked writers,
// disjoint-lock guarding — is reported at the first racing access.
package protdom

import (
	"fmt"
	"strings"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "protdom",
	Doc:  "infers every shared location's guarding discipline and flags inconsistent ones",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	census := tmflow.CensusOf(pass.Prog)
	for _, loc := range census.Locations {
		if loc.DeclPath != pass.Pkg.Path {
			continue
		}
		// The two mixes are flagged on the sites alone, shared or not: a
		// location the census sees from one goroutine today is one `go`
		// statement away from the race, and the discipline is wrong already.
		if plain := loc.PlainSites(); len(plain) > 0 && !loc.ChanTransfer {
			if tx := loc.TxSites(); anyWrite(tx, plain) {
				reportTxPlain(pass, loc)
				continue
			}
			if at := loc.AtomicSites(); anyWrite(at, plain) {
				reportAtomicPlain(pass, loc)
				continue
			}
		}
		d := census.DisciplineOf(loc)
		if d.Consistent || d.Label == "mixed(tx+plain)" || d.Label == "mixed(atomic+plain)" {
			continue // the mixes without a write on either side: nothing to tear
		}
		rep, detail := representative(census, loc, d.Label)
		if rep == nil {
			continue
		}
		pass.Reportf(rep.Pos, "%s has no consistent protection domain (%s): %s",
			loc.Pretty, d.Label, detail)
	}
	return nil
}

// anyWrite reports whether guarded is non-empty and either side writes (a
// read-only location cannot be torn; construction writes are not sites).
func anyWrite(guarded, plain []*tmflow.Access) bool {
	for _, sites := range [2][]*tmflow.Access{guarded, plain} {
		for _, a := range sites {
			if a.Write {
				return len(guarded) > 0
			}
		}
	}
	return false
}

// firstPlain is the site a tx+plain or atomic+plain mix is reported at: the
// first plain write, or failing that the first plain access.
func firstPlain(loc *tmflow.Location) (rep *tmflow.Access, all []*tmflow.Access) {
	all = loc.SortedAccesses(tmflow.ClassPlain, false)
	for _, a := range all {
		if a.Write {
			return a, all
		}
	}
	return all[0], all
}

func reportTxPlain(pass *analysis.Pass, loc *tmflow.Location) {
	rep, _ := firstPlain(loc)
	tx := loc.SortedAccesses(tmflow.ClassTx, false)[0]
	txPos := pass.Position(tx.Pos)
	verb := "read"
	if rep.Write {
		verb = "written"
	}
	pass.Reportf(rep.Pos,
		"%s is %s raw here but accessed inside a transaction under %s (%s:%d); "+
			"a plain access racing with an elided critical section can observe speculative state — "+
			"move it under the same lock, use sync/atomic, or separate the phases with a quiescence barrier",
		loc.Pretty, verb, tx.Guard, txPos.Filename[strings.LastIndexByte(txPos.Filename, '/')+1:], txPos.Line)
}

func reportAtomicPlain(pass *analysis.Pass, loc *tmflow.Location) {
	rep, plain := firstPlain(loc)
	what := "read plainly"
	switch {
	case rep.SliceExposure:
		what = "exposed as a plain slice"
	case rep.Write:
		what = "written plainly"
	}
	d := analysis.Diagnostic{
		Pos: rep.Pos,
		Message: fmt.Sprintf(
			"%s is %s here but accessed via sync/atomic elsewhere; "+
				"mixing atomic and plain access forfeits atomicity — promote every access to sync/atomic or none",
			loc.Pretty, what),
	}
	if fix, ok := promoteFix(pass, loc, plain); ok {
		d.Fixes = []analysis.SuggestedFix{fix}
	}
	pass.Report(d)
}

// representative picks the site to report — the first racing access —
// and describes the inconsistency.
func representative(census *tmflow.ProtCensus, loc *tmflow.Location, label string) (*tmflow.Access, string) {
	switch {
	case label == "mixed(unguarded-write)":
		for _, a := range loc.SortedAccesses(tmflow.ClassPlain, true) {
			if fromGoRoot(census, a) {
				return a, "written here with no guard while also accessed from " +
					otherRootsDesc(census, loc, a) + "; hoist it under the owning mutex or confine it to one goroutine"
			}
		}
	case label == "mixed(mutex+raw-read)":
		for _, a := range loc.SortedAccesses(tmflow.ClassPlain, false) {
			if fromGoRoot(census, a) {
				g := "a mutex"
				if mu := loc.MutexSites(); len(mu) > 0 {
					g = mu[0].Guard
				}
				return a, "read here raw while written under " + g +
					" elsewhere; the lock cannot order readers that do not take it"
			}
		}
	case label == "mixed(tx+mutex)":
		if tx := loc.SortedAccesses(tmflow.ClassTx, false); len(tx) > 0 {
			mu := loc.SortedAccesses(tmflow.ClassMutex, false)
			if len(mu) > 0 {
				return mu[0], "guarded here by native " + mu[0].Guard +
					" but accessed transactionally under " + tx[0].Guard +
					" elsewhere; a native mutex does not synchronize with an elided critical section"
			}
		}
	case strings.HasPrefix(label, "mixed(disjoint-locks"):
		mu := loc.SortedAccesses(tmflow.ClassMutex, false)
		if len(mu) > 1 {
			return mu[0], "guarded by " + mu[0].Guard + " here but by " +
				lastDistinctGuard(mu) + " elsewhere; pick one owning mutex"
		}
	}
	// Fallback: first plain write, then any plain site.
	if w := loc.SortedAccesses(tmflow.ClassPlain, true); len(w) > 0 {
		return w[0], "accesses disagree on a guard"
	}
	if p := loc.SortedAccesses(tmflow.ClassPlain, false); len(p) > 0 {
		return p[0], "accesses disagree on a guard"
	}
	return nil, ""
}

// fromGoRoot reports whether a executes on a spawned (or multi-instance)
// goroutine.
func fromGoRoot(census *tmflow.ProtCensus, a *tmflow.Access) bool {
	for r := range a.Roots {
		if r != 0 || census.Roots[r].Multi {
			return true
		}
	}
	return false
}

// otherRootsDesc names one other goroutine that reaches the location.
func otherRootsDesc(census *tmflow.ProtCensus, loc *tmflow.Location, rep *tmflow.Access) string {
	for _, a := range loc.Accesses {
		for r := range a.Roots {
			if !rep.Roots[r] {
				return census.RootDesc(r)
			}
			if census.Roots[r].Multi {
				return "another instance of " + census.RootDesc(r)
			}
		}
	}
	return "another goroutine"
}

func lastDistinctGuard(mu []*tmflow.Access) string {
	first := mu[0].Guard
	for _, a := range mu[1:] {
		if a.Guard != first && a.Guard != "" {
			return a.Guard
		}
	}
	return "a different lock"
}
