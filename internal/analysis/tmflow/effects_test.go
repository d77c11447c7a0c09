package tmflow_test

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/tmflow"
)

// lookupFunc finds a package-level function by name in pkg.
func lookupFunc(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("function %s not found in %s", name, pkg.Types.Path())
	}
	return fn
}

// TestEffectCacheInvalidation proves the memoization's invalidation
// story: summaries are keyed by *types.Func identity, so re-type-checking
// an edited fixture yields fresh function objects and the caller's
// summary is recomputed — the cached pre-edit entry can never answer for
// the post-edit world. The cache stats make the recomputation visible.
func TestEffectCacheInvalidation(t *testing.T) {
	prog := analysistest.Program(t)
	dir := t.TempDir()

	src1 := `package fixture

func leaf() int { return 1 }

func caller() int { return leaf() }
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src1), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg1, err := prog.AddDir(dir, "fixture/effcache-v1")
	if err != nil {
		t.Fatal(err)
	}
	caller1 := lookupFunc(t, pkg1, "caller")

	tmflow.ResetEffectCacheStats()
	sum1 := tmflow.EffectOf(prog, caller1)
	if sum1.Allocates {
		t.Fatalf("v1 caller summary = %+v, want allocation-free", sum1)
	}
	if hits, misses := tmflow.EffectCacheStats(); misses < 2 {
		// caller + leaf both computed fresh.
		t.Fatalf("v1 compute: hits=%d misses=%d, want >= 2 misses", hits, misses)
	}
	// Second query is answered entirely from the memo table.
	tmflow.ResetEffectCacheStats()
	tmflow.EffectOf(prog, caller1)
	if hits, misses := tmflow.EffectCacheStats(); hits != 1 || misses != 0 {
		t.Fatalf("v1 re-query: hits=%d misses=%d, want 1 hit, 0 misses", hits, misses)
	}

	// Edit the LEAF's body so it allocates, reload, and ask about the
	// CALLER: the bottom-up summary must recompute and pick the new
	// effect up transitively.
	src2 := `package fixture

func leaf() []byte { return make([]byte, 8) }

func caller() int { return len(leaf()) }
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src2), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg2, err := prog.AddDir(dir, "fixture/effcache-v2")
	if err != nil {
		t.Fatal(err)
	}
	caller2 := lookupFunc(t, pkg2, "caller")

	tmflow.ResetEffectCacheStats()
	sum2 := tmflow.EffectOf(prog, caller2)
	if !sum2.Allocates {
		t.Fatalf("v2 caller summary = %+v, want allocates (inherited from the edited leaf)", sum2)
	}
	if hits, misses := tmflow.EffectCacheStats(); misses < 2 {
		t.Fatalf("v2 compute: hits=%d misses=%d, want >= 2 misses (stale v1 entries must not answer)", hits, misses)
	}
	// The allocation's origin is attributed through the call chain.
	if site := sum2.Site; site.Via == nil || site.Via.Name() != "leaf" {
		t.Fatalf("v2 allocation site = %+v, want inherited via leaf", site)
	}

	// The v1 objects still answer from cache, untouched by the edit.
	tmflow.ResetEffectCacheStats()
	if s := tmflow.EffectOf(prog, caller1); s.Allocates {
		t.Fatalf("v1 caller summary mutated by the v2 load")
	}
	if hits, misses := tmflow.EffectCacheStats(); hits != 1 || misses != 0 {
		t.Fatalf("v1 after v2: hits=%d misses=%d, want pure cache hit", hits, misses)
	}
}
