package tmflow_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/tmflow"
)

func fixturePkg(t *testing.T) *analysis.Package {
	t.Helper()
	prog := analysistest.Program(t)
	abs, err := filepath.Abs("testdata/src/tmflow")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.AddDir(abs, "fixture/tmflow")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg
}

// declOf finds the fixture function declaration with the given name.
func declOf(t *testing.T, pkg *analysis.Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

// identUses returns, in source order, every *ast.Ident use of the
// variable named name inside body.
func identUses(pkg *analysis.Package, body *ast.BlockStmt, name string) (v *types.Var, uses []*ast.Ident) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if u, ok := pkg.Info.Uses[id].(*types.Var); ok {
			v = u
			uses = append(uses, id)
		}
		return true
	})
	return v, uses
}

func TestInitialReaches(t *testing.T) {
	pkg := fixturePkg(t)
	body := declOf(t, pkg, "flowFacts").Body
	f := tmflow.Of(pkg, body)

	// Three idents resolve to p: the early read, the assignment target of
	// p = 5 (go/types records it in Uses too), and the late read.
	p, uses := identUses(pkg, body, "p")
	if p == nil || len(uses) != 3 {
		t.Fatalf("expected 3 uses of p, got %d", len(uses))
	}
	if !f.InitialReaches(p, uses[0]) {
		t.Errorf("early use of p: initial value must reach (it is the only definition on that path)")
	}
	if f.InitialReaches(p, uses[2]) {
		t.Errorf("late use of p: every path passes p = 5 first, so false is provable")
	}
}

func TestInitialReachesConservative(t *testing.T) {
	pkg := fixturePkg(t)
	body := declOf(t, pkg, "taken").Body
	f := tmflow.Of(pkg, body)
	esc, uses := identUses(pkg, body, "esc")
	if esc == nil || len(uses) == 0 {
		t.Fatal("no uses of esc found")
	}
	// esc is address-taken: the analysis must claim nothing precise.
	for _, id := range uses {
		if !f.InitialReaches(esc, id) {
			t.Errorf("address-taken variable answered false (a proof) at %v", pkg.Prog.Fset.Position(id.Pos()))
		}
	}
}

func TestDeadAfterPanic(t *testing.T) {
	pkg := fixturePkg(t)
	body := declOf(t, pkg, "flowFacts").Body
	f := tmflow.Of(pkg, body)
	var deadAssign, lateAssign ast.Stmt
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			continue
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			switch id.Name {
			case "dead":
				deadAssign = as
			case "late":
				lateAssign = as
			}
		}
	}
	if deadAssign == nil || lateAssign == nil {
		t.Fatal("fixture statements not found")
	}
	if !f.Dead(deadAssign) {
		t.Error("statement after an unconditional panic must be dead")
	}
	if f.Dead(lateAssign) {
		t.Error("statement before the panic reported dead")
	}
}
