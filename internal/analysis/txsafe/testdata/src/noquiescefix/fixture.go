// Fix fixture for noqpriv's delete-the-hint rewrite: a NoQuiesce call in
// a privatizing transaction is removed, restoring the quiescent commit.
// fixture.go.golden is the expected `tmvet -fix` output.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng  *tm.Engine
	th   *tm.Thread
	head memseg.Addr
)

func unlinkFast() {
	eng.Atomic(th, func(tx tm.Tx) error {
		victim := memseg.Addr(tx.Load(head))
		tx.Store(head, tx.Load(victim))
		tx.Free(victim)
		tx.NoQuiesce() // want txsafe:"also frees TM memory"
		return nil
	})
}
