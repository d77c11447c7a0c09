// Fixture for the txsafe analyzer: irrevocable actions inside atomic
// bodies, reached directly and through the call graph, plus the
// sanctioned escape hatches (Tx.Defer, Synchronized).
package fixture

import (
	"fmt"
	"sync"
	"time"

	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	eng *tm.Engine
	th  *tm.Thread
	mu  *tle.Mutex
	nmu sync.Mutex
	ch  chan int
)

func direct() {
	eng.Atomic(th, func(tx tm.Tx) error {
		go leaf()                    // want txsafe:"go statement"
		ch <- 1                      // want txsafe:"channel send"
		<-ch                         // want txsafe:"channel receive"
		close(ch)                    // want txsafe:"close of a channel"
		fmt.Println("boom")          // want txsafe:"console I/O is irrevocable"
		time.Sleep(time.Millisecond) // want txsafe:"timed blocking"
		nmu.Lock()                   // want txsafe:"native locking bypasses the TM"
		return nil
	})
}

func nested() {
	eng.Atomic(th, func(tx tm.Tx) error {
		return eng.Synchronized(th, func(tx2 tm.Tx) error { // want txsafe:"Engine.Synchronized inside an atomic block"
			return nil
		})
	})
}

// transitive hands a declared function to Mutex.Do; the hazard sits two
// calls deep.
func transitive() {
	mu.Do(th, body)
}

func body(tx tm.Tx) error {
	leaf()
	return nil
}

func leaf() {
	fmt.Println("deep") // want txsafe:"reached via"
}

// logAfter is clean: the irrevocable work runs post-commit via Tx.Defer.
func logAfter() {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.Defer(func() { fmt.Println("committed") })
		return nil
	})
}

// synchronizedOK is clean: Synchronized bodies run serially and
// irrevocably, so I/O is permitted there.
func synchronizedOK() {
	eng.Synchronized(th, func(tx tm.Tx) error {
		fmt.Println("serial sections may do I/O")
		return nil
	})
}
