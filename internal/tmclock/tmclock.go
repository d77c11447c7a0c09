// Package tmclock provides the global version clock and the ownership-record
// (orec) table shared by all STM transactions of one engine.
//
// The STM follows GCC libitm's ml_wt design, itself in the TinySTM/LSA
// family: a global version clock orders commits, and every heap word hashes
// to an orec whose value is either an unlock timestamp (the clock value at
// the owning writer's last commit) or a lock word naming the current writer.
// The clock is a single fetch-and-add counter — the paper attributes the
// two-thread performance dip in Figure 5 to exactly this kind of global
// counter traffic, so keeping it one contended word is a feature, not a bug.
package tmclock

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"gotle/internal/memseg"
)

// Clock is the global version clock. The zero value starts at time 0.
type Clock struct {
	v atomic.Uint64
	_ [56]byte
}

// Read returns the current time without advancing it.
func (c *Clock) Read() uint64 { return c.v.Load() }

// Tick advances the clock and returns the new (commit) timestamp.
func (c *Clock) Tick() uint64 { return c.v.Add(1) }

// Orec encoding: the top bit distinguishes a lock word from a timestamp.
// A locked orec stores the owner's thread ID in the low bits; an unlocked
// orec stores the version (clock value) of the last commit that wrote any
// address mapping to it.
const lockBit uint64 = 1 << 63

// Locked reports whether an orec value is a lock word.
func Locked(v uint64) bool { return v&lockBit != 0 }

// Owner extracts the owning thread ID from a locked orec value.
func Owner(v uint64) uint64 { return v &^ lockBit }

// LockWord builds the orec value representing ownership by thread id.
func LockWord(id uint64) uint64 { return lockBit | id }

// Table maps heap addresses to orecs by masking. Its size is a power of two;
// distinct addresses may share an orec (a false conflict), exactly as in the
// real striped-lock STM.
//
// Layout: eight 8-byte orecs share a 64-byte line, so the flat stripe→slot
// mapping puts eight adjacent stripes' orecs on one line. Rotating the slot
// index (stripe s → rotl(s, 3)) separates those neighbours but scatters a
// traversal's orecs over eight lines: composed with Index it read
// tm-sets/speedup_vs_lock 0.604, 0.608 against 0.626, 0.631 flat (2 of 2
// alternating pairs, seeds 2, 3), so the layout is flat.
// Padding each orec to a line costs eight times the footprint for the same
// separation.
// The orecs come from memseg.Map, and a finalizer unmaps them once the Table
// is garbage: an orec pointer is valid while its holder reaches the Table.
type Table struct {
	//gotle:allow falseshare the layout note above rejected per-orec padding (8x footprint) and interleaving (measured slower); stripeShift is the mitigation
	recs []atomic.Uint64
	mask uint32
	// stripeShift groups 1<<stripeShift consecutive words per orec before
	// hashing; 0 means per-word orecs.
	stripeShift uint32
}

// NewTable returns an orec table with 1<<sizeLog2 entries and the given
// stripe granularity (words per stripe = 1<<stripeShift).
func NewTable(sizeLog2, stripeShift int) *Table {
	if sizeLog2 < 4 {
		sizeLog2 = 4
	}
	if sizeLog2 > 26 {
		sizeLog2 = 26
	}
	if stripeShift < 0 {
		stripeShift = 0
	}
	t := &Table{
		recs:        memseg.Map[atomic.Uint64](1 << sizeLog2),
		mask:        uint32(1<<sizeLog2 - 1),
		stripeShift: uint32(stripeShift),
	}
	runtime.SetFinalizer(t, func(t *Table) { memseg.Unmap(t.recs) })
	return t
}

// Len reports the number of orecs.
func (t *Table) Len() int { return len(t.recs) }

// StripeShift reports the configured stripe shift: 1<<StripeShift
// consecutive words share an orec. Range operations use it to walk a span
// one stripe at a time.
func (t *Table) StripeShift() uint32 { return t.stripeShift }

// Index returns the orec slot for an address (exported for tests and for
// the HTM simulator's line mapping comparisons).
func (t *Table) Index(a memseg.Addr) uint32 {
	return (uint32(a) >> t.stripeShift) & t.mask
}

// For returns the orec guarding address a.
func (t *Table) For(a memseg.Addr) *atomic.Uint64 {
	return &t.recs[t.Index(a)]
}

// At returns orec i directly.
func (t *Table) At(i uint32) *atomic.Uint64 { return &t.recs[i&t.mask] }

// SlotOf inverts For/At: the slot index of an orec pointer from this table.
// The STM's read-set compaction uses it to key deduplication by orec
// identity without widening the hot-path read-set entries.
func (t *Table) SlotOf(o *atomic.Uint64) uint32 {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(t.recs)))
	return uint32((uintptr(unsafe.Pointer(o)) - base) / unsafe.Sizeof(atomic.Uint64{}))
}
