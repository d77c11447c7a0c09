// Package stm implements the software transactional memory used for lock
// elision, modelled on GCC libitm's ml_wt algorithm ("multiple locks,
// write-through"), the privatization-safe TinySTM variant the paper's STM
// results use (Section VII: "The STM results use ml_wt algorithm (a
// privatization-safe version of TinySTM)").
//
// Algorithm sketch:
//
//   - A global version clock (tmclock.Clock) orders commits.
//   - Every heap word hashes to an ownership record. Unlocked orecs hold the
//     timestamp of the last commit that wrote them; locked orecs name the
//     writing transaction.
//   - Reads are invisible and time-based: read the orec, the word, the orec
//     again; if the orec moved or is newer than the transaction's snapshot,
//     try to extend the snapshot by revalidating the read set (LSA-style).
//   - Writes lock the orec at encounter time, log the old word value, and
//     write through (in place). Readers that hit a locked orec abort.
//   - Commit ticks the clock, validates the read set if anything committed
//     in between, and releases the locks at the new timestamp. Aborts undo
//     the writes in reverse order and release the locked orecs at a fresh
//     timestamp of their own.
//
// Write-through with undo is what makes quiescence (package epoch) load
// bearing: a doomed transaction's undo writes race with non-transactional
// reads of privatized data unless the privatizer waits out concurrent
// transactions — the subject of the paper's Section IV.
//
// Quiescence itself, serial-irrevocable fallback, and retry policy live in
// the engine (package tm); this package executes single attempts.
package stm

import (
	"math/bits"
	"sync/atomic"

	"gotle/internal/abortsig"
	"gotle/internal/chaos"
	"gotle/internal/memseg"
	"gotle/internal/relstore"
	"gotle/internal/stats"
	"gotle/internal/tmclock"
)

// Config holds STM construction parameters.
type Config struct {
	// OrecSizeLog2 caps the orec table at 1<<OrecSizeLog2 entries
	// (default 20). Below the cap the table has one orec per heap stripe,
	// rounded up to a power of two.
	OrecSizeLog2 int
	// StripeShift groups 1<<StripeShift consecutive words per orec
	// (default 0: per-word orecs).
	StripeShift int
	// Injector, when non-nil, is consulted at the chaos fault points
	// (forced validation aborts, delayed orec release, and the skip-undo
	// sabotage point). Nil disables injection.
	Injector *chaos.Injector
}

// STM is the shared state of one software TM instance.
type STM struct {
	mem   *memseg.Memory
	clock *tmclock.Clock
	orecs *tmclock.Table
	inj   *chaos.Injector
}

// New creates an STM over the given heap. Index masks the stripe number and
// no valid address reaches mem.Size(), so a table of nextPow2(stripes) orecs
// gives every address the slot the capped table would; a larger table's
// other slots are never touched.
func New(mem *memseg.Memory, cfg Config) *STM {
	if cfg.OrecSizeLog2 == 0 {
		cfg.OrecSizeLog2 = 20
	}
	lastStripe := uint(mem.Size()-1) >> max(cfg.StripeShift, 0)
	return &STM{
		mem:   mem,
		clock: &tmclock.Clock{},
		orecs: tmclock.NewTable(min(cfg.OrecSizeLog2, bits.Len(lastStripe)), cfg.StripeShift),
		inj:   cfg.Injector,
	}
}

// Clock exposes the global version clock (the HTM simulator and tests use it).
func (s *STM) Clock() *tmclock.Clock { return s.clock }

// Memory returns the heap this STM instruments.
func (s *STM) Memory() *memseg.Memory { return s.mem }

type readEntry struct {
	orec *atomic.Uint64
	seen uint64
}

type undoEntry struct {
	addr memseg.Addr
	old  uint64
}

// Tx is a per-thread transaction descriptor, reused across attempts.
// It is not safe for concurrent use.
type Tx struct {
	s     *STM
	id    uint64 // thread id, embedded in lock words
	rv    uint64 // snapshot (read version)
	reads []readEntry
	undo  []undoEntry
	locks []*atomic.Uint64 // orecs this attempt holds
	live  bool

	// Read-set dedup: filter remembers which orecs are already logged in
	// the current attempt (stamped with attempt), so validate/extend cost
	// scales with distinct stripes. In the default adaptive mode the filter
	// stays off — appends cost exactly what the seed paid — until the first
	// extend() proves this attempt revalidates; compactReads then folds the
	// duplicates out and filterOn routes later appends through the filter.
	// dedupHits accumulates suppressed duplicates for the stats registry.
	filter    readFilter
	attempt   uint64
	dedupMode uint8
	filterOn  bool // this attempt filters appends (eager mode or post-extend)
	dedupHits uint64
}

// Dedup modes; see SetReadDedup.
const (
	dedupAdaptive uint8 = iota // filter engages at the first extend (default)
	dedupEager                 // filter every append (property tests)
	dedupOff                   // seed behaviour: append every load (ablation)
)

// NewTx returns a descriptor for the thread with the given unique id.
func (s *STM) NewTx(id uint64) *Tx {
	return &Tx{s: s, id: id}
}

// Begin starts an attempt: snapshot the clock and clear the logs.
func (t *Tx) Begin() {
	if t.live {
		panic("stm: Begin on live transaction (nesting is flattened by the engine)")
	}
	t.rv = t.s.clock.Read()
	t.reads = t.reads[:0]
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
	t.attempt++
	t.filter.reset()
	t.filterOn = t.dedupMode == dedupEager
	t.live = true
}

// Live reports whether an attempt is in progress.
func (t *Tx) Live() bool { return t.live }

// ReadOnly reports whether the attempt so far has performed no writes.
func (t *Tx) ReadOnly() bool { return len(t.locks) == 0 }

// ReadSetSize and WriteSetSize expose log sizes for stats and tests.
func (t *Tx) ReadSetSize() int { return len(t.reads) }

// SetReadDedup selects the dedup mode. The default (no call) is adaptive:
// appends are unfiltered — the hot read path pays nothing — until the first
// extend() of an attempt, which compacts the read set to one entry per
// distinct orec and filters from there, so repeated extends are O(distinct)
// instead of O(raw loads). SetReadDedup(true) forces eager filtering of
// every append (the dedup property tests rely on ReadSetSize() == distinct
// stripes at all times); SetReadDedup(false) reproduces the seed's
// append-every-load behaviour (ablation). Must be called outside any attempt.
func (t *Tx) SetReadDedup(on bool) {
	if t.live {
		panic("stm: SetReadDedup during a live transaction")
	}
	if on {
		t.dedupMode = dedupEager
	} else {
		t.dedupMode = dedupOff
	}
}

// TakeDedupedReads returns and clears the number of duplicate read-set
// entries suppressed since the last call; the engine drains it into the
// stats registry after each attempt.
func (t *Tx) TakeDedupedReads() uint64 {
	n := t.dedupHits
	t.dedupHits = 0
	return n
}

// logReadFiltered appends a read-set entry unless the stripe is already
// logged in this attempt. Skipping is sound: during a live attempt a logged
// orec can only be re-observed at the same value — any later committed value
// is > rv and forces extend() (which aborts on the stale entry) before the
// append point is reached. Only filtering attempts (eager mode, or adaptive
// after the first extend) come here; the plain path appends inline in Load.
func (t *Tx) logReadFiltered(orec *atomic.Uint64, idx uint32, seen uint64) {
	if !t.filter.add(idx, t.attempt) {
		t.dedupHits++
		return
	}
	t.reads = append(t.reads, readEntry{orec: orec, seen: seen})
}

// compactReads folds duplicates out of the read set and switches the attempt
// to filtered appends. Adaptive dedup calls it on the first extend(): until a
// transaction is forced to revalidate, duplicate entries are harmless and the
// read path stays a bare append; once extends begin, every revalidation walks
// the whole set, so cutting it to one entry per distinct orec turns repeated
// extends from O(raw loads²) into O(distinct). Keeping the first entry per
// orec is exact: a second entry for an orec is only ever appended while the
// orec still holds the first entry's value (any intervening commit raises the
// version above rv and aborts via extend before the append).
func (t *Tx) compactReads() {
	t.filterOn = true
	kept := t.reads[:0]
	for _, e := range t.reads {
		if t.filter.add(t.s.orecs.SlotOf(e.orec), t.attempt) {
			kept = append(kept, e)
		} else {
			t.dedupHits++
		}
	}
	t.reads = kept
}
func (t *Tx) WriteSetSize() int { return len(t.undo) }

// abort throws the abort signal; the engine recovers it and calls OnAbort.
func (t *Tx) abort(cause stats.AbortCause) {
	abortsig.Throw(cause)
}

// validate re-checks every read: the location must be unchanged since it was
// read. Locked-by-self entries cannot occur (reads of own stripes are not
// logged). Reports whether the read set is still consistent.
func (t *Tx) validate() bool {
	for i := range t.reads {
		cur := t.reads[i].orec.Load()
		if cur != t.reads[i].seen {
			// A lock by self after the read is fine: we still saw the
			// pre-lock version and own the stripe now.
			if tmclock.Locked(cur) && tmclock.Owner(cur) == t.id {
				continue
			}
			return false
		}
	}
	return true
}

// extend tries to move the snapshot forward to the current clock after
// revalidating the read set; aborts the attempt on failure. A load that
// extends because the word it just read postdates the snapshot must then
// re-check that word's orec: the read is not in the set yet, and a writer
// that locked the stripe and ticked between the load's second orec sample
// and the clock read here is inside the new snapshot.
func (t *Tx) extend() {
	now := t.s.clock.Read()
	if !t.filterOn && t.dedupMode == dedupAdaptive {
		t.compactReads()
	}
	if t.s.inj.Fire(t.id, chaos.STMValidate) || !t.validate() {
		t.abort(stats.Validation)
	}
	t.rv = now
}

// Load performs a transactional read of the word at a.
//
// Filtering attempts (eager mode, or adaptive once an extend has engaged the
// filter) are dispatched to loadFiltered up front: keeping the filtered
// append — a non-inlinable call — out of this loop's tail keeps the plain
// path's register allocation identical to the unfiltered algorithm, which
// benchmarking showed is worth ~20% on read-dominated workloads.
func (t *Tx) Load(a memseg.Addr) uint64 {
	if t.filterOn {
		return t.loadFiltered(a)
	}
	orec := t.s.orecs.For(a)
	for {
		v1 := orec.Load()
		if tmclock.Locked(v1) {
			if tmclock.Owner(v1) == t.id {
				return t.s.mem.Load(a) // read own write-through value
			}
			t.abort(stats.Locked)
		}
		val := t.s.mem.Load(a)
		v2 := orec.Load()
		if v1 != v2 {
			// The orec moved underneath the read: abort if a writer holds
			// it now, re-read if its commit has already landed.
			if tmclock.Locked(v2) && tmclock.Owner(v2) != t.id {
				t.abort(stats.Locked)
			}
			continue
		}
		if v1 > t.rv {
			t.extend() // aborts on failure
			if orec.Load() != v1 {
				return t.Load(a) // re-dispatch: the extend may have engaged the filter
			}
			if t.filterOn {
				// The extend just compacted the read set (adaptive mode):
				// finish this read through the filter so the entry is
				// registered for the rest of the attempt.
				t.logReadFiltered(orec, t.s.orecs.Index(a), v1)
				return val
			}
		}
		t.reads = append(t.reads, readEntry{orec: orec, seen: v1})
		return val
	}
}

// loadFiltered is the write-through read path for filtering attempts. It
// duplicates the Load loop with a filtered append in the tail; see Load for
// why the two are kept separate.
func (t *Tx) loadFiltered(a memseg.Addr) uint64 {
	orec := t.s.orecs.For(a)
	for {
		v1 := orec.Load()
		if tmclock.Locked(v1) {
			if tmclock.Owner(v1) == t.id {
				return t.s.mem.Load(a) // read own write-through value
			}
			t.abort(stats.Locked)
		}
		val := t.s.mem.Load(a)
		v2 := orec.Load()
		if v1 != v2 {
			if tmclock.Locked(v2) && tmclock.Owner(v2) != t.id {
				t.abort(stats.Locked)
			}
			continue
		}
		if v1 > t.rv {
			t.extend() // aborts on failure
			if orec.Load() != v1 {
				continue
			}
		}
		t.logReadFiltered(orec, t.s.orecs.Index(a), v1)
		return val
	}
}

// Store performs a transactional write of the word at a, acquiring the
// covering orec at encounter time and writing through.
func (t *Tx) Store(a memseg.Addr, v uint64) {
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
	t.undo = append(t.undo, undoEntry{addr: a, old: t.s.mem.Load(a)})
	t.s.mem.Store(a, v)
}

// Commit finishes the attempt. It returns true when the transaction was
// read-only. On validation failure it aborts (panics with the abort signal)
// after restoring state, like any other conflict.
func (t *Tx) Commit() (readOnly bool) {
	if !t.live {
		panic("stm: Commit without Begin")
	}
	if t.s.inj.Fire(t.id, chaos.STMValidate) {
		// Injected validation failure: indistinguishable from a real one to
		// the engine, which must roll back and retry.
		t.abort(stats.Validation)
	}
	if len(t.locks) == 0 {
		// Read-only: all reads were consistent at rv; nothing to publish.
		t.live = false
		return true
	}
	wv := t.s.clock.Tick()
	if wv != t.rv+1 && !t.validate() {
		// Someone committed since our snapshot and the read set no longer
		// holds. Roll back (the engine's recover path calls OnAbort).
		t.abort(stats.Validation)
	}
	// Injected delay between clock tick and orec release: concurrent readers
	// and writers of these stripes see the locks held longer.
	t.s.inj.Stall(t.id, chaos.STMLockStall)
	t.release(wv)
	t.live = false
	return false
}

// release unlocks every orec the attempt holds at version v, with ml_wt's
// release stores: the attempt's write-through stores (or, on abort, its
// undo) are ordered before each, so a reader that sees an orec unlocked
// sees the words it covers. Nothing later needs the new version visible
// at once: until it is, readers find the orec still locked and abort, as
// they would a moment earlier.
func (t *Tx) release(v uint64) {
	for _, orec := range t.locks {
		relstore.Store64(orec, v)
	}
}

// OnAbort rolls back a failed attempt: undo the write-through stores in
// reverse order, then release the orecs at a fresh clock tick. Not at their
// pre-lock versions: a Load samples the orec, the word, the orec again, and
// if a whole lock, write-through and abort fitted between its two samples it
// would see the same version twice around a dirty word. libitm's ml_wt
// rollback does the same once its incarnation bits run out; there are none
// here, since an abort that holds locks is the rare case. The engine calls
// this from its recover handler before retrying; the epoch slot must remain
// marked active until OnAbort returns (quiescers must wait out the undo,
// Section IV).
func (t *Tx) OnAbort() {
	if t.s.inj.Fire(t.id, chaos.SkipUndo) {
		// SABOTAGE (checker-teeth tests only): drop the undo log, leaving
		// the aborted attempt's write-through state in committed memory.
		t.undo = t.undo[:0]
	}
	// Injected delay before rollback completes: the epoch slot stays active
	// and the orecs stay locked while quiescers and conflicting transactions
	// wait out the undo — the window Section IV's argument is about.
	t.s.inj.Stall(t.id, chaos.STMLockStall)
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.s.mem.Store(t.undo[i].addr, t.undo[i].old)
	}
	if len(t.locks) > 0 {
		t.release(t.s.clock.Tick())
	}
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
	t.reads = t.reads[:0]
	t.live = false
}
