// Fixture for txpure's handle-escape checks: Tx and Addr handles escaping
// their critical section, and the sanctioned out-parameter idiom. Each
// store draws one diagnostic; the channel send is txsafe's.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng      *tm.Engine
	th       *tm.Thread
	leakedTx tm.Tx
	leakedA  memseg.Addr
	addrCh   chan memseg.Addr
)

type holder struct {
	tx   tm.Tx
	addr memseg.Addr
}

func escapes(h *holder) {
	eng.Atomic(th, func(tx tm.Tx) error {
		leakedTx = tx         // want txpure:"package-level variable leakedTx"
		leakedA = tx.Alloc(1) // want txpure:"package-level variable leakedA"
		h.tx = tx             // want txpure:"struct field"
		h.addr = tx.Alloc(1)  // want txpure:"struct field"
		addrCh <- tx.Alloc(1) // want txsafe:"TM address sent on a channel"
		return nil
	})
}

// deferStale captures the Tx in a post-commit action, where the handle
// is no longer valid.
func deferStale() {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.Defer(func() {
			tx.Store(0, 1) // want txpure:"captured by a Tx.Defer action"
		})
		return nil
	})
}

// outAddr is the sanctioned idiom: an address handed out through a
// write-only captured local, read only after the block commits.
func outAddr() memseg.Addr {
	var a memseg.Addr
	eng.Atomic(th, func(tx tm.Tx) error {
		a = tx.Alloc(1)
		return nil
	})
	return a
}

// localScratch stores addresses into body-local structures, which die
// with the attempt: exempt.
func localScratch() {
	eng.Atomic(th, func(tx tm.Tx) error {
		var hs [2]memseg.Addr
		hs[0] = tx.Alloc(1)
		tx.Store(hs[0], 1)
		return nil
	})
}
