// Fixture for the atomicmix analyzer: locations accessed both through
// sync/atomic and through plain loads/stores.
package fixture

import "sync/atomic"

type gauge struct {
	val uint64
	raw uint64
}

var g = &gauge{}

func Inc() {
	atomic.AddUint64(&g.val, 1)
}

// Reset stores plainly into a word other goroutines touch atomically.
func Reset() {
	g.val = 0 // want protdom:"mixing atomic and plain access forfeits atomicity"
}

// Touch is raw-only: no atomic site anywhere, no finding.
func Touch() {
	g.raw++
}

// seq is read plainly against an atomic writer: the plain read is the
// reported site (reads can observe torn or stale values too).
type clock struct {
	seq uint64
}

var ck = &clock{}

func Tick() {
	atomic.AddUint64(&ck.seq, 1)
}

func Now() uint64 {
	return ck.seq // want protdom:"read plainly here but accessed via sync/atomic"
}

// readOnly mixes atomic and plain reads with no write anywhere outside
// construction: nothing can tear, no finding.
type snapshotted struct {
	gen uint64
}

func newSnapshotted(gen uint64) *snapshotted {
	s := &snapshotted{}
	s.gen = gen
	return s
}

var sn = newSnapshotted(1)

func GenAtomic() uint64 {
	return atomic.LoadUint64(&sn.gen)
}

func GenPlain() uint64 {
	return sn.gen
}

// allowed demonstrates the escape hatch.
type pool struct {
	hot uint64
}

var pl = &pool{}

func Drain() {
	atomic.StoreUint64(&pl.hot, 0)
}

func InitPool(v uint64) {
	//gotle:allow protdom single-threaded init before the pool is published
	pl.hot = v
}
