// Package fixture reproduces the paper's Listing 1-3 hazard shapes in
// one place and is checked by every analyzer together (the cross-pass
// test): rule-qualified wants compose, and each hazardous site is
// reported once, under the one rule that owns it.
package fixture

import (
	"runtime"
	"time"

	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng       *tm.Engine
	th        *tm.Thread
	cv        *condvar.Cond
	head      memseg.Addr
	published memseg.Addr
	handoff   chan memseg.Addr
)

// listing12 unlinks and frees a node (Listing 1) and publishes a fresh
// address through a global (Listing 2) while asking to skip quiescence.
func listing12(victim memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.NoQuiesce() // want txsafe:"Listing 1"
		next := memseg.Addr(tx.Load(victim))
		tx.Store(head, uint64(next))
		tx.Free(victim)
		published = tx.Alloc(2) // want txpure:"package-level variable published"
		return nil
	})
}

// publishOnChannel hands a fresh address to another goroutine before the
// transaction commits (Listing 2 through a channel): the send is both a
// wait and a publication, and draws one diagnostic naming both.
func publishOnChannel() {
	eng.Atomic(th, func(tx tm.Tx) error {
		handoff <- tx.Alloc(2) // want txsafe:"channel send inside an atomic block: .*TM address sent on a channel"
		return nil
	})
}

// listing3 spin-waits inside a transaction for a concurrent update it
// can never observe under lock elision.
func listing3(flagA memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		for tx.Load(flagA) == 0 {
			runtime.Gosched() // want txsafe:"Listing 3"
		}
		return nil
	})
}

// listing3Fixed is the sanctioned rewrite: observe, retry, and let the
// runtime wait outside the transaction.
func listing3Fixed(flagA memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		if tx.Load(flagA) == 0 {
			tx.Retry()
		}
		return nil
	})
}

// waitAndSignal mixes an immediate wakeup with a mid-transaction wait.
func waitAndSignal(flagA memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		cv.Signal() // want txsafe:"SignalTx"
		if tx.Load(flagA) == 0 {
			cv.Wait(time.Second) // want txsafe:"condvar.Cond.Wait parks the goroutine"
		}
		return nil
	})
}
