// Fixture for the capest analyzer: static HTM capacity estimates per
// atomic body (htm.Config defaults: 512 write lines, 4096 read lines).
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	eng  *tm.Engine
	th   *tm.Thread
	mu   *tle.Mutex
	base memseg.Addr
)

// bigWriteLoop stores to 600 distinct addresses: 600 weighted write lines
// blow the 512-line write budget.
func bigWriteLoop() {
	eng.Atomic(th, func(tx tm.Tx) error { // want capest:"write set of this atomic body is ~600 cache lines.*Mutex\\.SetPolicy\\(PolicySTMCondVarNoQ\\)"
		for i := 0; i < 600; i++ {
			tx.Store(base+memseg.Addr(i), 1)
		}
		return nil
	})
}

// bigReadLoops walks an 80x80 grid: 6400 weighted read lines blow the
// 4096-line read budget.
func bigReadLoops() uint64 {
	var sum uint64
	mu.Do(th, func(tx tm.Tx) error { // want capest:"read set of this atomic body is ~6400 cache lines.*Mutex\\.SetPolicy\\(PolicySTMCondVarNoQ\\)"
		sum = 0
		for i := 0; i < 80; i++ {
			for j := 0; j < 80; j++ {
				sum += tx.Load(base + memseg.Addr(i*80+j))
			}
		}
		return nil
	})
	return sum
}

// invariantBase hammers the same two words from inside a big loop: the
// loop-invariant base and constant offsets dedup to two lines. Clean.
func invariantBase() {
	eng.Atomic(th, func(tx tm.Tx) error {
		for i := 0; i < 10000; i++ {
			v := tx.Load(base)
			tx.Store(base+1, v)
		}
		return nil
	})
}

// touchRow writes one 64-word row; callers inherit its footprint.
func touchRow(tx tm.Tx, row memseg.Addr) {
	for i := 0; i < 64; i++ {
		tx.Store(row+memseg.Addr(i), 0)
	}
}

// calleeWeighted calls the 64-line helper from a 16-iteration loop: the
// memoized callee footprint is weighted by the loop, 1024 > 512.
func calleeWeighted(rows [16]memseg.Addr) {
	eng.Atomic(th, func(tx tm.Tx) error { // want capest:"write set of this atomic body is ~1024 cache lines.*Mutex\\.SetPolicy\\(PolicySTMCondVarNoQ\\)"
		for i := 0; i < 16; i++ {
			touchRow(tx, rows[i])
		}
		return nil
	})
}

// smallBody fits comfortably: clean.
func smallBody() {
	eng.Atomic(th, func(tx tm.Tx) error {
		tx.Store(base, tx.Load(base)+1)
		return nil
	})
}
