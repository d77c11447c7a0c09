package stm

import (
	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/tmclock"
)

// Range operations: bulk loads and stores that pay the orec protocol once
// per covering stripe instead of once per word.
//
// With per-word orecs (StripeShift 0) these degenerate to the scalar
// protocol — same atomics, same log entries — so they are never worse than
// a loop over Load/Store. With striped orecs (StripeShift k) a span of n
// words costs ceil(n/2^k) orec validations/acquisitions and read/lock log
// entries, which is what makes word-packed byte payloads (the kvstore's
// keys and values) affordable under STM: profiling the memcached server
// showed the per-word orec traffic of pack/unpack/compare loops was half
// the serving CPU.

// LoadRange performs transactional reads of the len(dst) consecutive words
// starting at a into dst. Equivalent to dst[i] = Load(a+i) for all i, but
// each covering stripe is validated and logged once.
func (t *Tx) LoadRange(a memseg.Addr, dst []uint64) {
	shift := t.s.orecs.StripeShift()
	for len(dst) > 0 {
		// Words [a, stripeEnd) share one orec.
		n := int((uint64(a)>>shift+1)<<shift - uint64(a))
		if n > len(dst) {
			n = len(dst)
		}
		t.loadStripe(a, dst[:n])
		a += memseg.Addr(n)
		dst = dst[n:]
	}
}

// loadStripe is the Load protocol applied to a run of words under one orec:
// sample the orec, read the words, recheck the orec, extend if the stripe
// postdates the snapshot, log one read entry.
func (t *Tx) loadStripe(a memseg.Addr, dst []uint64) {
	orec := t.s.orecs.For(a)
	for {
		v1 := orec.Load()
		if tmclock.Locked(v1) {
			if tmclock.Owner(v1) == t.id {
				// Read own write-through values; own stripes are not logged.
				for i := range dst {
					dst[i] = t.s.mem.Load(a + memseg.Addr(i))
				}
				return
			}
			t.abort(stats.Locked)
		}
		for i := range dst {
			dst[i] = t.s.mem.Load(a + memseg.Addr(i))
		}
		v2 := orec.Load()
		if v1 != v2 {
			// The orec moved underneath the reads: abort if a writer holds
			// it now, re-read if its commit has already landed.
			if tmclock.Locked(v2) && tmclock.Owner(v2) != t.id {
				t.abort(stats.Locked)
			}
			continue
		}
		if v1 > t.rv {
			t.extend() // aborts on failure; may engage the filter (adaptive)
			if orec.Load() != v1 {
				continue
			}
		}
		if t.filterOn {
			t.logReadFiltered(orec, t.s.orecs.Index(a), v1)
		} else {
			t.reads = append(t.reads, readEntry{orec: orec, seen: v1})
		}
		return
	}
}

// StoreRange performs transactional writes of the words of src to the
// consecutive addresses starting at a. Equivalent to Store(a+i, src[i]) for
// all i, but each covering stripe's orec is acquired once. Undo entries
// stay per-word (rollback needs the old values).
func (t *Tx) StoreRange(a memseg.Addr, src []uint64) {
	shift := t.s.orecs.StripeShift()
	for len(src) > 0 {
		n := int((uint64(a)>>shift+1)<<shift - uint64(a))
		if n > len(src) {
			n = len(src)
		}
		t.storeStripe(a, src[:n])
		a += memseg.Addr(n)
		src = src[n:]
	}
}

// storeStripe acquires the orec covering a run of words, then logs and
// writes each word through. The acquisition loop mirrors Store; an abort
// can only fire before the first word of the stripe is written, so the
// undo log is always consistent with memory.
func (t *Tx) storeStripe(a memseg.Addr, src []uint64) {
	orec := t.s.orecs.For(a)
	for {
		cur := orec.Load()
		if tmclock.Locked(cur) {
			if tmclock.Owner(cur) == t.id {
				break // stripe already owned: just log and write
			}
			t.abort(stats.Locked)
		}
		if cur > t.rv {
			// The stripe committed after our snapshot; extend before taking
			// it so the timestamp order stays consistent.
			t.extend()
		}
		if orec.CompareAndSwap(cur, tmclock.LockWord(t.id)) {
			t.locks = append(t.locks, orec)
			break
		}
		// Lost a race for the orec; re-examine it.
	}
	for i, v := range src {
		aa := a + memseg.Addr(i)
		t.undo = append(t.undo, undoEntry{addr: aa, old: t.s.mem.Load(aa)})
		t.s.mem.Store(aa, v)
	}
}
