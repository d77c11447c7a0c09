package txsafe_test

import (
	"testing"

	"gotle/internal/analysis/analysistest"
	"gotle/internal/analysis/txsafe"
)

func TestTxsafe(t *testing.T) {
	analysistest.Run(t, "testdata/src/txsafe", txsafe.Analyzer)
}

func TestTxsafeFix(t *testing.T) {
	analysistest.RunFix(t, "testdata/src/txsafefix", txsafe.Analyzer)
}

// TestTxsafeWaits pins the wait and io classes in both entry kinds.
func TestTxsafeWaits(t *testing.T) {
	analysistest.Run(t, "testdata/src/waits", txsafe.Analyzer)
}

// TestTxsafeCondvar pins condvar.Cond.Wait as a wait in every position of
// a section body, and Mutex.Await with Tx.Retry as the clean protocol.
func TestTxsafeCondvar(t *testing.T) {
	analysistest.Run(t, "testdata/src/condvar", txsafe.Analyzer)
}

// TestTxsafeNoQuiesce pins NoQuiesce in privatizing transactions.
func TestTxsafeNoQuiesce(t *testing.T) {
	analysistest.Run(t, "testdata/src/noquiesce", txsafe.Analyzer)
}

func TestTxsafeNoQuiesceFix(t *testing.T) {
	analysistest.RunFix(t, "testdata/src/noquiescefix", txsafe.Analyzer)
}
