package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/txsafe"
)

// TestListing3Teeth guards the allow on x265sim's deliberate Listing 3
// demo: the real package is clean, and a copy with that allow removed must
// draw txsafe's spin-wait finding, so the allow can never mask a rule that
// stopped seeing the hazard.
func TestListing3Teeth(t *testing.T) {
	prog, err := analysis.LoadModule("../..", "./internal/x265sim")
	if err != nil {
		t.Fatal(err)
	}
	x265 := prog.Lookup("gotle/internal/x265sim")
	analyzers := []*analysis.Analyzer{txsafe.Analyzer}
	if diags, err := analysis.Run(prog, []*analysis.Package{x265}, analyzers); err != nil || len(diags) != 0 {
		t.Fatalf("x265sim: %d txsafe findings (err %v), want 0 with its allows", len(diags), err)
	}

	const allow = "//gotle:allow txsafe deliberate reproduction of the paper's Listing 3"
	dir := t.TempDir()
	ents, err := os.ReadDir(x265.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(x265.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "non2pl.go" {
			if n := strings.Count(string(src), allow); n != 1 {
				t.Fatalf("non2pl.go carries the Listing 3 allow %d times, want 1", n)
			}
			src = []byte(strings.Replace(string(src), allow, "//", 1))
		}
		if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := prog.AddDir(dir, "fixture/x265sim")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, []*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("  %s", analysis.Format(prog.Fset, d))
		}
		t.Fatalf("got %d txsafe findings without the allow, want 1", len(diags))
	}
	pos := prog.Fset.Position(diags[0].Pos)
	if filepath.Base(pos.Filename) != "non2pl.go" || !strings.Contains(diags[0].Message, "runtime.Gosched") ||
		!strings.Contains(diags[0].Message, "Listing 3") {
		t.Fatalf("finding %s, want non2pl.go's runtime.Gosched spin-wait (Listing 3)", analysis.Format(prog.Fset, diags[0]))
	}
}
