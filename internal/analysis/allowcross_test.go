package analysis_test

import (
	"testing"

	"gotle/internal/analysis"
	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/txpure"
	"gotle/internal/analysis/txsafe"
)

// TestAllowCross pins the per-rule contract of //gotle:allow: a single
// statement that trips both txsafe and txpure, with an allow naming only
// txpure, must still surface the txsafe finding. This guards the
// suppression key (rule name, not line). An allow naming a rule outside
// the registry is reported by the allow check.
func TestAllowCross(t *testing.T) {
	registry := []*analysis.Analyzer{txpure.Analyzer, txsafe.Analyzer}
	analysistest.Run(t, "testdata/src/allowcross",
		append(registry, analysis.UnknownAllows(registry))...)
}
