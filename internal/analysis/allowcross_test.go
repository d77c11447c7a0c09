package analysis_test

import (
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/lockorder"
	"gotle/internal/analysis/txsafe"
)

// TestAllowCross pins the per-rule contract of //gotle:allow: a single
// call that trips both lockorder and txsafe at the same position, with an
// allow naming only lockorder, must still surface the txsafe finding.
// This guards both the suppression key (rule name, not position) and the
// runner's consecutive-(pos, rule) dedup. An allow naming a rule outside
// the registry is reported by the allow check.
func TestAllowCross(t *testing.T) {
	registry := []*analysis.Analyzer{lockorder.Analyzer, txsafe.Analyzer}
	analysistest.Run(t, "testdata/src/allowcross",
		append(registry, analysis.UnknownAllows(registry))...)
}
