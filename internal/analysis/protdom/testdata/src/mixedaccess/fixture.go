// Fixture for the mixedaccess analyzer: locations touched both inside
// an elided critical section and raw, with a write on at least one side
// (the paper's Listing 1/2 hazard).
package fixture

import (
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	th *tm.Thread
	mu *tle.Mutex
)

type account struct {
	bal   int
	label int
}

var acct = &account{}

// Deposit mutates bal inside the elided critical section.
func Deposit() {
	mu.Do(th, func(tx tm.Tx) error {
		acct.bal++
		return nil
	})
}

// RawDrain races the transaction with a plain write: flagged.
func RawDrain() {
	acct.bal = 0 // want protdom:"accessed inside a transaction under"
}

// RawPeek reads label raw while LabelTx writes it transactionally: a
// plain read against a transactional writer can observe speculative
// state, so the read side is flagged too.
func LabelTx(v int) {
	mu.Do(th, func(tx tm.Tx) error {
		acct.label = v
		return nil
	})
}

func RawPeek() int {
	return acct.label // want protdom:"read raw here but accessed inside a transaction"
}

// readOnly is accessed on both sides but never written (construction
// aside): nothing can tear, no finding.
type table struct {
	limit int
}

func newTable(limit int) *table {
	t := &table{}
	t.limit = limit
	return t
}

var tab = newTable(8)

func LimitTx() int {
	n := 0
	mu.Do(th, func(tx tm.Tx) error {
		n = tab.limit
		return nil
	})
	return n
}

func LimitRaw() int {
	return tab.limit
}

// scratch is raw-only: no transactional site, no finding.
type scratch struct {
	n int
}

var sc = &scratch{}

func Bump() {
	sc.n++
}

// stats is written transactionally, but Snapshot reads its own value
// copy — local memory, not the shared instance — so no finding.
type stats struct {
	hits int
}

var st = &stats{}

func HitTx() {
	mu.Do(th, func(tx tm.Tx) error {
		st.hits++
		return nil
	})
}

func Snapshot() int {
	snap := *st
	return snap.hits
}

// allowed demonstrates the escape hatch: the raw write is justified.
type allowed struct {
	mode int
}

var al = &allowed{}

func ModeTx() {
	mu.Do(th, func(tx tm.Tx) error {
		al.mode++
		return nil
	})
}

func SetModeBeforeServing(v int) {
	//gotle:allow protdom runs during startup before any transaction
	al.mode = v
}
