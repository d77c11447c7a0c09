package analysis_test

import (
	"testing"

	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/txescape"
	"gotle/internal/analysis/txpure"
)

// TestAllowCross pins the per-rule contract of //gotle:allow: a single
// line that trips both txescape and txpure at the same position, with an
// allow naming only txescape, must still surface the txpure finding. This guards both the suppression key (rule name,
// not position) and the runner's consecutive-(pos, rule) dedup.
func TestAllowCross(t *testing.T) {
	analysistest.Run(t, "testdata/src/allowcross",
		txescape.Analyzer, txpure.Analyzer)
}
