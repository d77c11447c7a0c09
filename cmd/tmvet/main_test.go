package main

import (
	"strings"
	"testing"

	"gotle/internal/analysis/analysistest"
)

// TestRegistry pins the rule set: the four analyzers, in driver order.
func TestRegistry(t *testing.T) {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	got := strings.Join(names, ",")
	if want := "txsafe,txpure,hotalloc,falseshare"; got != want {
		t.Fatalf("registered analyzers = %s, want %s", got, want)
	}
}

// TestAllowCheckUsesFullRegistry runs one analyzer, as `-run txsafe`
// does, over a fixture whose allows name txpure and an unknown rule:
// only the unknown rule is reported, because the allow check knows every
// registered rule, not just the selected ones.
func TestAllowCheckUsesFullRegistry(t *testing.T) {
	selected, err := selectAnalyzers("txsafe")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, "../../internal/analysis/testdata/src/allowcross",
		append(selected, allowCheck)...)
}
