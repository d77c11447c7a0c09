// Fixture for txsafe's NoQuiesce rule: Tx.NoQuiesce combined with
// privatization (free) or publication, directly and transitively, plus
// the sound read-only use.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng    *tm.Engine
	th     *tm.Thread
	shared []memseg.Addr
)

func freeHazard(a memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.NoQuiesce() // want txsafe:"Listing 1"
		tx.Free(a)
		return nil
	})
}

func publishHazard() {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.NoQuiesce() // want txsafe:"Listing 2"
		shared[0] = tx.Alloc(4)
		return nil
	})
}

// transitiveFree frees through a helper: the taint crosses the call.
func transitiveFree(a memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.NoQuiesce() // want txsafe:"Listing 1"
		drop(tx, a)
		return nil
	})
}

func drop(tx tm.Tx, a memseg.Addr) { tx.Free(a) }

// readOnly never privatizes, so skipping quiescence is sound (the
// kvstore Get pattern).
func readOnly(a memseg.Addr) uint64 {
	var v uint64
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		v = tx.Load(a)
		return nil
	})
	return v
}
