package analysis_test

import (
	"go/ast"
	"go/types"
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/tmflow"
)

// TestWalkReachesShardMutations pins that kvstore's shard section stays
// statically visible: the walk the per-section analyzers make from the
// section Mutate enters reaches the three functions that mutate a
// shard. A body entered through a func-typed field or variable is opaque
// to that walk, and txsafe, txpure and hotalloc would check none of them.
func TestWalkReachesShardMutations(t *testing.T) {
	prog, err := analysis.LoadModule("../..", "./internal/kvstore")
	if err != nil {
		t.Fatal(err)
	}
	pkg := prog.Lookup("gotle/internal/kvstore")
	var mutate *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Mutate" {
				mutate = fd
			}
		}
	}
	if mutate == nil {
		t.Fatal("kvstore.Mutate not found")
	}
	reached := map[string]bool{"applyStore": false, "applyIncr": false, "applyDelete": false}
	for _, e := range analysis.AtomicEntries(pkg) {
		if e.Call.Pos() < mutate.Pos() || e.Call.End() > mutate.End() {
			continue
		}
		v := &tmflow.Visitor{Prog: prog, Opaque: analysis.IsRuntimeFn, Visit: func(_ *analysis.Package, _ ast.Node, trail []*types.Func) bool {
			for _, fn := range trail {
				if _, ok := reached[fn.Name()]; ok {
					reached[fn.Name()] = true
				}
			}
			return true
		}}
		v.Walk(e.BodyPkg, e.Body())
	}
	for name, ok := range reached {
		if !ok {
			t.Errorf("no walk from a section entered in Mutate reaches %s", name)
		}
	}
}
