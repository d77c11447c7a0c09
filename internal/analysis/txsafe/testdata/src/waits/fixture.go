// Fixture for txsafe's wait and io classes: blocking operations reachable
// from atomic and Synchronized critical sections, interprocedural reach,
// and the io-class exemption for Synchronized bodies (the sanctioned home
// for irrevocable I/O). Each site draws one diagnostic.
package fixture

import (
	"os"
	"time"

	"gotle/internal/tm"
)

var (
	eng *tm.Engine
	th  *tm.Thread
	ch  chan int
	f   *os.File
	buf []byte
)

// atomicWaits: wait-class operations inside an atomic body can never be
// satisfied under elision — the transaction cannot observe the
// concurrent update it waits for.
func atomicWaits() {
	eng.Atomic(th, func(tx tm.Tx) error {
		<-ch                         // want txsafe:"channel receive inside an atomic block: an in-transaction wait can never be satisfied under elision"
		time.Sleep(time.Millisecond) // want txsafe:"time.Sleep waits on the wall clock inside an atomic block"
		return nil
	})
}

// atomicIO: io-class operations inside an atomic body block the
// transaction and re-fire on every retry.
func atomicIO() {
	eng.Atomic(th, func(tx tm.Tx) error {
		f.Write(buf) // want txsafe:"os.File.Write issues a file I/O syscall inside an atomic block: the syscall blocks the transaction and re-fires on every retry"
		return nil
	})
}

// syncWaits: wait-class is flagged in Synchronized bodies too — the
// serial section holds the global lock while it waits.
func syncWaits() {
	eng.Synchronized(th, func(tx tm.Tx) error {
		<-ch // want txsafe:"channel receive inside a Synchronized block: the serial section holds the global lock while waiting"
		return nil
	})
}

// syncIO is clean: io-class operations are sanctioned in Synchronized
// bodies, which run serially and irrevocably.
func syncIO() {
	eng.Synchronized(th, func(tx tm.Tx) error {
		f.Write(buf)
		return nil
	})
}

// blocksDeep is reached from interprocedural's atomic body through
// middle; the diagnostic lands at the blocking site with the call trail.
func blocksDeep() {
	<-ch // want txsafe:"channel receive inside an atomic block: .*reached via"
}

func middle() { blocksDeep() }

func interprocedural() {
	eng.Atomic(th, func(tx tm.Tx) error {
		middle()
		return nil
	})
}

// pureLeaf cannot block, so cleanCaller produces no diagnostics.
func pureLeaf(x int) int { return x + 1 }

func cleanCaller() {
	eng.Atomic(th, func(tx tm.Tx) error {
		pureLeaf(2)
		return nil
	})
}

// allowed exercises the suppression hatch.
func allowed() {
	eng.Atomic(th, func(tx tm.Tx) error {
		<-ch //gotle:allow txsafe fixture: justified wait, suppressed
		return nil
	})
}
