package protdom_test

import (
	"testing"

	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/protdom"
)

func TestProtDom(t *testing.T) {
	analysistest.Run(t, "testdata/src/protdom", protdom.Analyzer)
}

func TestMixedAccess(t *testing.T) {
	analysistest.Run(t, "testdata/src/mixedaccess", protdom.Analyzer)
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata/src/atomicmix", protdom.Analyzer)
}

func TestAtomicMixFix(t *testing.T) {
	analysistest.RunFix(t, "testdata/src/atomicmixfix", protdom.Analyzer)
}
