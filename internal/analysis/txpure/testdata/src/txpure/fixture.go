// Fixture for the txpure analyzer: non-transactional writes the undo
// log cannot revert, and the sanctioned out-parameter / Tx.Defer idioms.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng     *tm.Engine
	th      *tm.Thread
	counter int
	gmap    = map[string]int{}
)

func globals() {
	eng.Atomic(th, func(tx tm.Tx) error {
		counter = 1   // want txpure:"package-level variable counter"
		gmap["k"] = 2 // want txpure:"through package-level variable gmap"
		return nil
	})
}

// The same writes one static call down, where a section's real work
// lives: the walk follows callees for package-level writes. A local of the
// callee stays quiet.
func globalsViaCallee() {
	eng.Atomic(th, func(tx tm.Tx) error {
		touchGlobals(tx.Load(0))
		return nil
	})
}

func touchGlobals(v uint64) {
	n := int(v)
	n++
	counter += n  // want txpure:"package-level variable counter.*reached via .*touchGlobals"
	gmap["k"] = n // want txpure:"package-level variable gmap.*reached via .*touchGlobals"
}

// accum is the kvstore.Len bug shape: the captured accumulator keeps the
// previous attempt's value across a retry.
func accum(addrs []memseg.Addr) int {
	total := 0
	eng.Atomic(th, func(tx tm.Tx) error {
		for _, a := range addrs {
			total += int(tx.Load(a)) // want txpure:"double-counts on retry"
		}
		return nil
	})
	return total
}

func throughPointer(p *int) {
	eng.Atomic(th, func(tx tm.Tx) error {
		*p = 7 // want txpure:"write through captured p"
		return nil
	})
}

// outParam is the sanctioned idiom: a captured local written exactly
// once with `=` and read only after the critical section.
func outParam(a memseg.Addr) uint64 {
	var v uint64
	eng.Atomic(th, func(tx tm.Tx) error {
		v = tx.Load(a)
		return nil
	})
	return v
}

// deferred writes run post-commit, exactly once: exempt.
func deferred() int {
	n := 0
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.Defer(func() { n++ })
		return nil
	})
	return n
}

// bodyLocal state dies with the attempt: exempt.
func bodyLocal(a memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error {
		sum := 0
		sum += int(tx.Load(a))
		tx.Store(a, uint64(sum))
		return nil
	})
}
