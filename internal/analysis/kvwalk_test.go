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
// section MutateBatch enters reaches the three functions that mutate a
// shard. A body entered through a func-typed field or variable is opaque
// to that walk, and txsafe, txpure and hotalloc would check none of them.
func TestWalkReachesShardMutations(t *testing.T) {
	prog, err := analysis.LoadModule("../..", "./internal/kvstore")
	if err != nil {
		t.Fatal(err)
	}
	pkg := prog.Lookup("gotle/internal/kvstore")
	var batch *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "MutateBatch" {
				batch = fd
			}
		}
	}
	if batch == nil {
		t.Fatal("kvstore.MutateBatch not found")
	}
	reached := map[string]bool{"applyStore": false, "applyIncr": false, "applyDelete": false}
	for _, e := range analysis.AtomicEntries(pkg) {
		if e.Call.Pos() < batch.Pos() || e.Call.End() > batch.End() {
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
			t.Errorf("no walk from a section entered in MutateBatch reaches %s", name)
		}
	}
}
