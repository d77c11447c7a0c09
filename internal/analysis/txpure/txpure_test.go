package txpure_test

import (
	"testing"

	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/txpure"
	"gotle/internal/analysis/txsafe"
)

func TestTxpure(t *testing.T) {
	analysistest.Run(t, "testdata/src/txpure", txpure.Analyzer)
}

// TestTxpureEscape pins Tx and Addr handles escaping their section. The
// fixture's channel send is txsafe's: one diagnostic names the wait and
// the published address.
func TestTxpureEscape(t *testing.T) {
	analysistest.Run(t, "testdata/src/escape", txpure.Analyzer, txsafe.Analyzer)
}
