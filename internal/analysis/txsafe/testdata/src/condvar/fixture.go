// Fixture for txsafe's condition-variable waits: condvar.Cond.Wait inside
// a critical section, wherever it sits in the body, draws one wait-class
// diagnostic. A wait belongs after rollback (Tx.Retry + Mutex.Await),
// never inside a section.
package fixture

import (
	"errors"
	"time"

	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	eng  *tm.Engine
	th   *tm.Thread
	mu   *tle.Mutex
	cv   *condvar.Cond
	flag memseg.Addr

	errTimeout = errors.New("timeout")
)

// waitNotLast blocks mid-transaction: statements execute after the wait.
func waitNotLast(ready bool) {
	eng.Atomic(th, func(tx tm.Tx) error {
		if !ready {
			cv.Wait(time.Second) // want txsafe:"condvar.Cond.Wait parks the goroutine inside an atomic block"
			ready = true
		}
		return nil
	})
}

// waitLoop re-executes the wait on every iteration.
func waitLoop() {
	eng.Atomic(th, func(tx tm.Tx) error {
		for tx.Load(flag) == 0 {
			cv.Wait(time.Second) // want txsafe:"condvar.Cond.Wait parks the goroutine inside an atomic block"
		}
		return nil
	})
}

// waitLast waits as the transaction's final instruction; it still holds
// the transaction's speculative state while it blocks.
func waitLast(ready bool) {
	eng.Atomic(th, func(tx tm.Tx) error {
		if ready {
			return nil
		}
		if !cv.Wait(time.Second) { // want txsafe:"condvar.Cond.Wait parks the goroutine inside an atomic block"
			return errTimeout
		}
		return nil
	})
}

// syncCondWait holds the global serial lock while it waits.
func syncCondWait() {
	eng.Synchronized(th, func(tx tm.Tx) error {
		cv.Wait(time.Second) // want txsafe:"condvar.Cond.Wait parks the goroutine inside a Synchronized block: the serial section holds the global lock"
		return nil
	})
}

// awaitOK is the sanctioned protocol: the body observes the predicate
// and retries; Mutex.Await waits on the condition variable after the
// transaction has rolled back.
func awaitOK() {
	mu.Await(th, cv, time.Second, func(tx tm.Tx) error {
		if tx.Load(flag) == 0 {
			tx.Retry()
		}
		return nil
	})
}
