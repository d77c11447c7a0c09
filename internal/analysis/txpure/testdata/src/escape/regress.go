// Regression fixture for the tmflow retrofit: a publish on a statically
// dead path never executes, so the syntactic finding was a false
// positive. The live publish below it keeps the check's teeth.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

// publishAfterRetry stores the address into a global only after Tx.Retry,
// which unwinds the transaction and never returns: clean under the flow
// graph.
func publishAfterRetry(a memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		blk := tx.Alloc(4)
		if tx.Load(a) == 0 {
			tx.Retry()
			leakedA = blk
		}
		tx.Store(a, uint64(blk))
		return nil
	})
}

// publishLive is the same store on a live path: still flagged.
func publishLive(a memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		blk := tx.Alloc(4)
		if tx.Load(a) == 0 {
			leakedA = blk // want txpure:"package-level variable leakedA"
		}
		return nil
	})
}
