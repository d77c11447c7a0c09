package tmflow_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/tmflow"
	"gotle/internal/lockcheck"
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
	if f.SingleDef(esc) != nil {
		t.Error("SingleDef must be nil for an address-taken variable")
	}
}

func TestSingleDef(t *testing.T) {
	pkg := fixturePkg(t)

	body := declOf(t, pkg, "single").Body
	f := tmflow.Of(pkg, body)
	once, _ := identUses(pkg, body, "once")
	if once == nil {
		t.Fatal("once not found")
	}
	def := f.SingleDef(once)
	call, ok := def.(*ast.CallExpr)
	if !ok {
		t.Fatalf("SingleDef(once) = %T, want the seed() call", def)
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "seed" {
		t.Fatalf("SingleDef(once) resolves to %v, want seed()", call.Fun)
	}

	body = declOf(t, pkg, "twice").Body
	f = tmflow.Of(pkg, body)
	n, _ := identUses(pkg, body, "n")
	if n == nil {
		t.Fatal("n not found")
	}
	if d := f.SingleDef(n); d != nil {
		t.Fatalf("SingleDef(n) = %v, want nil for a twice-defined variable", d)
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

// newMutexLine finds the 1-based line of the NewMutex call whose name
// literal is q, straight from the fixture source text so the test does
// not mirror the resolver it checks.
func newMutexLine(t *testing.T, file, name string) int {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	needle := `NewMutex("` + name + `")`
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, needle) {
			return i + 1
		}
	}
	t.Fatalf("%s: no %s call found", file, needle)
	return 0
}

// lockRecv finds the receiver expression of the Mutex.Do call inside the
// named fixture function.
func lockRecv(t *testing.T, pkg *analysis.Package, fn string) (*ast.FuncDecl, ast.Expr) {
	t.Helper()
	decl := declOf(t, pkg, fn)
	var recv ast.Expr
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
			recv = sel.X
			return false
		}
		return true
	})
	if recv == nil {
		t.Fatalf("%s: no Mutex.Do call found", fn)
	}
	return decl, recv
}

// TestLockIDMatchesDynamicSiteKey is the static half of the lock-key
// round trip (lockcheck's identity test is the dynamic half): resolving a
// Mutex.Do receiver to its NewMutex creation site must yield exactly
// "name@" + lockcheck.SiteKey(file, line), the identity the runtime
// reports through tle.LockNamer, so static and dynamic findings can be
// grep-joined on the lock.
func TestLockIDMatchesDynamicSiteKey(t *testing.T) {
	pkg := fixturePkg(t)
	fixtureFile := filepath.Join(pkg.Dir, "fixture.go")

	// Package-level mutex: the declaration's initializer carries the site.
	_, recv := lockRecv(t, pkg, "useRoundtrip")
	id := tmflow.LockOf(pkg, nil, recv)
	want := lockcheck.SiteKey(fixtureFile, newMutexLine(t, fixtureFile, "roundtrip"))
	if id.Site != want {
		t.Errorf("package-var Site = %q, want %q", id.Site, want)
	}
	if id.Pretty != "roundtrip@"+want {
		t.Errorf("package-var Pretty = %q, want %q", id.Pretty, "roundtrip@"+want)
	}

	// Local mutex: reaching definitions resolve the variable to its
	// creation site.
	decl, recv := lockRecv(t, pkg, "useLocal")
	f := tmflow.Of(pkg, decl.Body)
	id = tmflow.LockOf(pkg, f, recv)
	want = lockcheck.SiteKey(fixtureFile, newMutexLine(t, fixtureFile, "local"))
	if id.Site != want {
		t.Errorf("local-var Site = %q, want %q", id.Site, want)
	}
	if id.Pretty != "local@"+want {
		t.Errorf("local-var Pretty = %q, want %q", id.Pretty, "local@"+want)
	}
}

// enclosingFunc names the declared function containing pos, "" when none.
func enclosingFunc(pkg *analysis.Package, pos token.Pos) string {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// TestListing3Teeth pins the x265sim demo to the analysis results the
// //gotle:allow annotation in non2pl.go suppresses from tmvet's output:
// if the lockorder machinery ever stops seeing the Listing-3 hazard, this
// fails rather than the annotation silently masking the regression.
func TestListing3Teeth(t *testing.T) {
	prog := analysistest.Program(t)
	pkg := prog.Lookup("gotle/internal/x265sim")
	if pkg == nil {
		t.Fatal("gotle/internal/x265sim not loaded")
	}

	var flagged, listing4Reacquires int
	for _, e := range analysis.AtomicEntries(pkg) {
		s := tmflow.EntryFacts(e)
		switch enclosingFunc(e.CallPkg, e.Call.Pos()) {
		case "RunListing3":
			for _, r := range s.Reacquires {
				if r.Via != nil && r.Via.Name() == "produceInline" {
					flagged++
				}
			}
		case "RunListing4":
			listing4Reacquires += len(s.Reacquires)
		}
	}
	if flagged == 0 {
		t.Error("RunListing3's queue-lock body no longer carries the Listing-3 reacquire via produceInline")
	}
	if listing4Reacquires != 0 {
		t.Errorf("RunListing4 (the paper's fix) reports %d reacquires, want 0", listing4Reacquires)
	}

	// The callee summary itself must carry the hazard: produceInline
	// completes a section on the request lock and then re-enters it.
	var produceInline *types.Func
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "produceInline" {
				continue
			}
			produceInline, _ = pkg.Info.Defs[fd.Name].(*types.Func)
		}
	}
	if produceInline == nil {
		t.Fatal("produceInline not found")
	}
	sum := tmflow.FuncSummary(prog, produceInline)
	if len(sum.Sections) == 0 {
		t.Error("produceInline summary lists no critical sections")
	}
	if len(sum.Reacquires) == 0 {
		t.Error("produceInline summary lost its two-phase-locking hazard")
	}
}
