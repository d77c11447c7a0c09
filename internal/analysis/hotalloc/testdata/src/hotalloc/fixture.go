// Fixture for the hotalloc analyzer: //gotle:hotpath roots must be
// transitively allocation-free in steady state. The amortization idioms
// (cap-guarded make, self-append) stay quiet; everything else that can
// touch the heap is flagged, including allocations hiding behind
// module-local callees (surfaced by the effect summaries) and Append
// calls with a nil destination.
package fixture

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"

	"gotle/internal/tm"
)

type conn struct {
	buf  []byte
	line []byte
}

// grow is the amortized vocabulary: cap-guarded make plus self-append
// (including the x[:0] reslice) are steady-state free and stay quiet.
//gotle:hotpath fixture: amortized buffer reuse
func (c *conn) grow(n int) {
	if cap(c.buf) < n {
		c.buf = make([]byte, 0, n)
	}
	c.buf = append(c.buf[:0], c.line...)
}

// growFrame is the frame encoder's shape: slices.Grow of the reused base
// is self-append (its type-parameter argument is not boxed) and crc32 is
// allowlisted; Grow of another slice allocates.
//gotle:hotpath fixture: slices.Grow and crc32
func (c *conn) growFrame(n int) uint32 {
	c.buf = slices.Grow(c.buf, n)[:n]
	out := slices.Grow(c.line, n) // want hotalloc:"calls slices.Grow.*not on the allocation-free allowlist"
	return crc32.ChecksumIEEE(c.buf) + uint32(len(out))
}

// growNew returns a fresh Grow, which allocates on every call: only the
// assignment form reuses a base.
//gotle:hotpath fixture: returned slices.Grow
func growNew(n int) []byte {
	return slices.Grow([]byte(nil), n) // want hotalloc:"calls slices.Grow.*not on the allocation-free allowlist"
}

// direct flags the direct allocation vocabulary; the trailing
// return-append is the caller-owned amortized form and stays quiet.
//gotle:hotpath fixture: direct allocation vocabulary
func direct(n int, dst []byte) []byte {
	s := strconv.Itoa(n) // want hotalloc:"strconv.Itoa allocates its result"
	b := []byte(s)       // want hotalloc:"string-to-slice conversion copies and allocates"
	_ = fmt.Sprint(n)    // want hotalloc:"fmt.Sprint formats into a fresh buffer"
	m := make([]byte, n) // want hotalloc:"unguarded make on the hot path allocates every call"
	_ = m
	return append(dst, b...)
}

// nilDst: the Append family is allowlisted for reused buffers, but a
// literal nil destination allocates a fresh slice every call.
//gotle:hotpath fixture: nil Append destination
func nilDst(v uint64) []byte {
	return strconv.AppendUint(nil, v, 10) // want hotalloc:"nil destination on the hot path: Append into nil allocates every call"
}

// leafAlloc is not itself hot, but hotCaller reaches it; the effect
// summary routes the walk here and the diagnostic carries the trail.
func leafAlloc() []byte {
	return make([]byte, 8) // want hotalloc:"unguarded make on the hot path allocates every call.*reached via"
}

//gotle:hotpath fixture: transitive audit through a summarized callee
func hotCaller() []byte {
	return leafAlloc()
}

// leafClean cannot allocate; its summary prunes the walk.
func leafClean(x int) int { return x + 1 }

//gotle:hotpath fixture: summary-clean callee is pruned
func hotClean() int { return leafClean(2) }

// coldReply is deliberately unoptimized and marked so; hotWithCold may
// call it without findings.
//gotle:coldpath fixture: error formatting off the measured path
func coldReply(err error) []byte { return []byte("ERROR " + err.Error() + "\r\n") }

//gotle:hotpath fixture: coldpath callee is opaque
func hotWithCold(err error) []byte {
	if err != nil {
		return coldReply(err)
	}
	return nil
}

func sink(v interface{}) {}

//gotle:hotpath fixture: boxing a value into an interface parameter
func hotBox(n int) {
	sink(n) // want hotalloc:"boxes it on the heap"
}

//gotle:hotpath fixture: dynamic call cannot be verified
func hotDyn(f func()) {
	f() // want hotalloc:"dynamic call on the hot path"
}

//gotle:hotpath fixture: Tx.Defer arguments escape to the engine
func hotDefer(tx tm.Tx) {
	tx.Defer(func() {}) // want hotalloc:"closure passed to Tx.Defer on the hot path"
}

//gotle:hotpath fixture: external callee off the allowlist
func hotExtern(s string) *strings.Reader {
	return strings.NewReader(s) // want hotalloc:"external function not on the allocation-free allowlist"
}

//gotle:hotpath fixture: suppression hatch
func hotAllowed(n int) []byte {
	//gotle:allow hotalloc fixture: warm-up only, suppressed
	return make([]byte, n)
}
