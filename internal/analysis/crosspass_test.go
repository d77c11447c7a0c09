package analysis_test

import (
	"testing"

	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/falseshare"
	"gotle/internal/analysis/hotalloc"
	"gotle/internal/analysis/txpure"
	"gotle/internal/analysis/txsafe"
)

// TestListings runs the whole suite over a fixture reproducing the
// paper's Listing 1-3 hazard shapes, checking that the analyzers
// compose: one line can carry wants for several rules, and a site that
// several hazards meet at is reported once.
func TestListings(t *testing.T) {
	analysistest.Run(t, "testdata/src/listings",
		txsafe.Analyzer, txpure.Analyzer, hotalloc.Analyzer, falseshare.Analyzer)
}
