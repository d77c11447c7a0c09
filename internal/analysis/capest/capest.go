// Package capest implements the HTM capacity estimator. Section IV of the
// paper attributes most real-world elision failures not to conflicts but
// to capacity: a hardware transaction that touches more cache lines than
// the L1 write set (or L2/LLC read set) can track aborts on every attempt,
// and the retry policy burns its HTM budget before falling back. The
// simulated HTM in internal/htm models the same budgets (htm.Config:
// 512 write lines, 4096 read lines by default).
//
// capest statically estimates each atomic body's transactional footprint
// with tmflow.FootprintOf — loop-weighted Tx.Load/Store line counts, with
// loop-invariant base + constant offset accesses deduplicated to distinct
// lines, callees inlined through memoized summaries, and interface calls
// resolved to their worst concrete implementation — and flags bodies whose
// estimate exceeds a capacity budget. The recommendation is policy, not
// surgery: a section that cannot fit in HTM should run under an STM policy
// (Mutex.SetPolicy(PolicySTMCondVarNoQ), which is also where the adaptive
// controller lands it) so attempts do not pay for doomed hardware retries;
// shrinking the section is the better fix when possible.
//
// The estimate errs large on pointer-chasing loops (each iteration is
// assumed to touch a fresh line), which is deliberate: linked structures
// are exactly the shape that overflows HTM read sets.
package capest

import (
	"fmt"
	"sort"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// Capacity budgets mirror the htm.Config defaults the benchmarks run with.
const (
	WriteCapacityLines = 512
	ReadCapacityLines  = 4096
)

// Analyzer is the capest pass.
var Analyzer = &analysis.Analyzer{
	Name: "capest",
	Doc:  "flag atomic bodies whose estimated footprint exceeds HTM capacity (recommend STM-first)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, e := range analysis.AtomicEntries(pass.Pkg) {
		fp := tmflow.FootprintOf(e.BodyPkg, e.Body())
		pos := e.FuncNode().Pos()
		switch {
		case fp.WriteLines > WriteCapacityLines:
			pass.Reportf(pos, "estimated transactional write set of this atomic body is ~%.0f cache lines, beyond the HTM write capacity (%d lines): every hardware attempt aborts on capacity, so move its mutex off htm-cv (Mutex.SetPolicy(PolicySTMCondVarNoQ); Config.MaxRetries only changes how many doomed attempts come first) or shrink the write set (Section IV)", fp.WriteLines, WriteCapacityLines)
		case fp.ReadLines > ReadCapacityLines:
			pass.Reportf(pos, "estimated transactional read set of this atomic body is ~%.0f cache lines, beyond the HTM read capacity (%d lines): hardware attempts abort on capacity, so move its mutex off htm-cv (Mutex.SetPolicy(PolicySTMCondVarNoQ); Config.MaxRetries only changes how many doomed attempts come first) or shrink the traversal (Section IV)", fp.ReadLines, ReadCapacityLines)
		}
	}
	return nil
}

// A Ranked pairs an atomic entry with its footprint estimate and the
// fraction of the binding capacity budget it consumes.
type Ranked struct {
	Entry     *analysis.Entry
	Footprint tmflow.Footprint
	// Pressure is max(writes/writeCap, reads/readCap): ≥ 1 means the body
	// is expected to capacity-abort in HTM.
	Pressure float64
}

// Rank estimates every atomic body in the program and returns them sorted
// by descending capacity pressure. `tmvet -capest-rank` prints this table;
// EXPERIMENTS.md correlates it with the measured HTM fallback rates.
func Rank(prog *analysis.Program) []Ranked {
	var out []Ranked
	for _, pkg := range prog.Packages {
		for _, e := range analysis.AtomicEntries(pkg) {
			fp := tmflow.FootprintOf(e.BodyPkg, e.Body())
			p := fp.WriteLines / WriteCapacityLines
			if r := fp.ReadLines / ReadCapacityLines; r > p {
				p = r
			}
			out = append(out, Ranked{Entry: e, Footprint: fp, Pressure: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pressure != out[j].Pressure {
			return out[i].Pressure > out[j].Pressure
		}
		return out[i].Entry.Body().Pos() < out[j].Entry.Body().Pos()
	})
	return out
}

// FormatRanked renders one table row for -capest-rank.
func FormatRanked(prog *analysis.Program, r Ranked) string {
	pos := prog.Fset.Position(r.Entry.FuncNode().Pos())
	return fmt.Sprintf("%6.2f  r=%-7.0f w=%-6.0f %s:%d", r.Pressure,
		r.Footprint.ReadLines, r.Footprint.WriteLines, pos.Filename, pos.Line)
}
