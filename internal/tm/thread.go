package tm

import (
	"gotle/internal/chaos"
	"gotle/internal/epoch"
	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/stm"
)

// Thread is the per-goroutine transactional context. Exactly one goroutine
// may use a Thread; create one per worker with Engine.NewThread.
type Thread struct {
	e    *Engine
	id   uint64
	st   *stats.Stripe // the engine counters' stripe for id
	slot *epoch.Slot
	qs   epoch.Scratch // reusable quiesce snapshot buffer (allocation-free commits)
	stx  *stmTx        // nil when the engine has no STM
	htx  *htmTx        // nil when the engine has no HTM
	rbuf []uint64      // Tx.RangeBuf backing store (allocation-free range staging)
	// mc is the thread's block cache: every block the thread allocates or
	// frees, in or out of a section, goes through it.
	mc *memseg.Cache

	// Per-transaction state, reset at each top-level attempt.
	depth int
	// allocs lists the blocks the running attempt allocated, as word ranges
	// [a, end). An abort frees them. Until the attempt commits they are also
	// captured memory: no other thread can hold a pointer into one — the
	// store that publishes it is an ordinary instrumented store, invisible
	// until commit, and the allocator's grace period (quiescence or
	// DeferredReclaim before reuse) retired every pointer to the block's
	// previous life — so STM stores that land wholly inside one skip the
	// orec and the undo log (stmTx.Store/StoreRange).
	allocs    []allocRange
	frees     []memseg.Addr
	deferred  []func()
	noQuiesce bool
	wrote     bool // a serial section has stored: it can no longer cancel
	cur       Tx   // active wrapper for flat nesting

	// Per-call configuration, pinned by attempt/runSerial for the duration
	// of one top-level execution (see CallOpts).
	mech     Mech
	honorNoQ bool
	obs      *stats.Stripe // CallOpts.Obs's stripe for id; nil (records nothing) when the call has none

	// Deferred reclamation (reclaim.go): blocks this thread's commits freed,
	// waiting out a grace period. sealed waits for the slots gp recorded;
	// open has no snapshot yet.
	sealed, open []memseg.Addr
	parkedWords  int // payload words in sealed and open
	gp           epoch.Scratch
}

// NewThread registers a new transactional thread with the engine. Under HTM
// at most htm.MaxThreads threads may be live at once per engine (NewThread
// panics beyond that, like exhausting hardware contexts); call
// Thread.Release when a worker exits so its context can be reused.
func (e *Engine) NewThread() *Thread {
	var it idleThread
	e.idle.Lock()
	if n := len(e.idle.threads); n > 0 {
		it = e.idle.threads[n-1]
		e.idle.threads = e.idle.threads[:n-1]
	}
	e.idle.Unlock()
	if it.id == 0 {
		it = idleThread{id: e.nextID.Add(1), mc: e.mem.NewCache()}
	}
	id := it.id
	th := &Thread{
		e:    e,
		id:   id,
		st:   e.ctr.Stripe(id),
		slot: e.epochs.Register(),
		mc:   it.mc,
	}
	if e.inj != nil {
		// Chaos: the stall runs at the top of Exit, while the slot still
		// reads as active — committing quiescers must wait it out, exactly
		// the window the paper's Section IV quiescence argument covers.
		th.slot.SetExitHook(func() { e.inj.Stall(id, chaos.EpochStall) })
	}
	if e.stm != nil {
		th.stx = &stmTx{e.stm.NewTx(id), th}
	}
	if e.htm != nil {
		th.htx = &htmTx{e.htm.NewTx(id), th} // panics past htm.MaxThreads
	}
	th.mech = e.defaultMech()
	th.honorNoQ = e.cfg.HonorNoQuiesce
	return th
}

// Release returns the thread's resources (epoch slot, thread id — under
// HTM, a hardware context — and block cache) to the engine, first waiting
// out a grace period for the blocks it has parked under
// Config.DeferredReclaim and freeing them. The blocks its cache holds go
// back to the shared heap. The thread must be outside any atomic block and
// must not be used afterwards. Statistics recorded by the thread remain in
// the engine's counters.
func (th *Thread) Release() {
	if th.e == nil {
		return // already released
	}
	if th.depth > 0 {
		panic("tm: Release inside an atomic block")
	}
	if th.parkedWords != 0 {
		th.obs = nil // the wait belongs to no call
		th.flushParked()
	}
	e := th.e
	e.epochs.Unregister(th.slot)
	if th.htx != nil {
		th.htx.Release()
	}
	th.mc.Drain()
	e.idle.Lock()
	e.idle.threads = append(e.idle.threads, idleThread{th.id, th.mc})
	e.idle.Unlock()
	th.e = nil
	th.stx = nil
	th.htx = nil
	th.mc = nil
}

// ID returns the thread's engine-unique id.
func (th *Thread) ID() uint64 { return th.id }

// InTx reports whether the thread is inside an atomic block.
func (th *Thread) InTx() bool { return th.depth > 0 }

// allocRange is one Tx.Alloc of the running attempt: payload words [a, end).
type allocRange struct{ a, end memseg.Addr }

// captured reports whether the n words at a lie wholly inside a block the
// running attempt allocated.
func (th *Thread) captured(a memseg.Addr, n int) bool {
	for _, b := range th.allocs {
		if a >= b.a && uint64(a)+uint64(n) <= uint64(b.end) {
			return true
		}
	}
	return false
}

func (th *Thread) resetTxnState() {
	th.allocs = th.allocs[:0]
	th.frees = th.frees[:0]
	th.deferred = th.deferred[:0]
	th.noQuiesce = false
}

// Tx is the access interface handed to an atomic block's body. All methods
// may only be called from the body's goroutine, during the block.
type Tx interface {
	// Load reads a word transactionally.
	Load(a memseg.Addr) uint64
	// Store writes a word transactionally.
	Store(a memseg.Addr, v uint64)
	// LoadRange reads the len(dst) consecutive words starting at a, as if
	// by Load(a+i) for each i, but letting the TM validate each covering
	// stripe (STM) or cache line (HTM) once instead of once per word —
	// the fast path for word-packed byte payloads.
	LoadRange(a memseg.Addr, dst []uint64)
	// StoreRange writes the words of src to consecutive addresses starting
	// at a, as if by Store(a+i, src[i]), acquiring each covering stripe or
	// line once.
	StoreRange(a memseg.Addr, src []uint64)
	// RangeBuf returns a transaction-owned scratch slice of n words for
	// staging LoadRange/StoreRange transfers. Using it instead of a local
	// buffer keeps callers allocation-free: a stack buffer sliced into an
	// interface call escapes to the heap, this one is reused for the
	// thread's lifetime. Contents are unspecified; the slice is only valid
	// until the next RangeBuf call on the same transaction.
	RangeBuf(n int) []uint64
	// Alloc allocates a zeroed block of n words inside the transaction.
	// The allocation is undone if the transaction aborts.
	Alloc(n int) memseg.Addr
	// Free releases a block at commit time. The engine quiesces before the
	// memory is recycled, regardless of the quiescence policy — the
	// allocator requirement the paper notes in Section VII.C.
	Free(a memseg.Addr)
	// NoQuiesce asks the engine to skip post-commit quiescence for this
	// transaction — the paper's proposed TM.NoQuiesce API. The engine is
	// free to ignore it (it does so for nested transactions, for
	// transactions that free memory, when Config.HonorNoQuiesce is unset,
	// and always under HTM, where quiescence never happens).
	NoQuiesce()
	// Defer schedules fn to run after the transaction commits (and after
	// quiescence). Deferred actions are the engine's mechanism for
	// irrevocable effects inside transactions: log output (Section VI.c)
	// and condition-variable signals. They do not run if the transaction
	// aborts or is cancelled.
	Defer(fn func())
	// Retry aborts the transaction (rolling back all effects) and makes
	// Atomic return ErrRetry: the body observed an unsatisfied predicate.
	Retry()
	// Irrevocable reports whether the block is executing under the serial
	// lock (no concurrent transactions, writes are final).
	Irrevocable() bool
}

// ---- STM wrapper ----

// stmTx is the thread's STM descriptor as a Tx, built once per thread.
// Load and LoadRange are the descriptor's own, promoted: a section's load
// is one interface call into the STM, as a lock's is one into memory.
// Stores into captured memory (Thread.allocs) skip the STM and cost what
// they cost under a lock: no orec acquisition, no undo entry, one bulk copy
// for a range. Loads keep the normal path — a captured word's orec may
// cover a live neighbour's words too, and reading it costs nothing shared.
// libitm's ml_wt has no such path; the observation is Dragojević, Ni and
// Adl-Tabatabai's (SPAA 2009). htmTx must not take it: real hardware
// buffers those lines in L1 like any other, so they count against
// WriteCapacityLines.
type stmTx struct {
	*stm.Tx
	th *Thread
}

func (w *stmTx) Store(a memseg.Addr, v uint64) {
	if w.th.captured(a, 1) {
		w.th.e.mem.Store(a, v)
		return
	}
	w.Tx.Store(a, v)
}
func (w *stmTx) StoreRange(a memseg.Addr, s []uint64) {
	if w.th.captured(a, len(s)) {
		w.th.e.mem.StoreRange(a, s)
		return
	}
	w.Tx.StoreRange(a, s)
}
func (w *stmTx) RangeBuf(n int) []uint64 { return w.th.rangeBuf(n) }
func (w *stmTx) Alloc(n int) memseg.Addr { return w.th.txAlloc(n) }
func (w *stmTx) Free(a memseg.Addr)      { w.th.txFree(a) }
func (w *stmTx) NoQuiesce()              { w.th.requestNoQuiesce() }
func (w *stmTx) Defer(fn func())         { w.th.deferred = append(w.th.deferred, fn) }
func (w *stmTx) Retry()                  { throwRetry() }
func (w *stmTx) Irrevocable() bool       { return false }

// ---- HTM wrapper ----

// htmTx is the thread's HTM descriptor as a Tx, built once per thread; its
// Load, Store, LoadRange and StoreRange are the descriptor's own.
type htmTx struct {
	*htm.Tx
	th *Thread
}

func (w *htmTx) RangeBuf(n int) []uint64 { return w.th.rangeBuf(n) }
func (w *htmTx) Alloc(n int) memseg.Addr { return w.th.txAlloc(n) }
func (w *htmTx) Free(a memseg.Addr)      { w.th.txFree(a) }
func (w *htmTx) NoQuiesce()              {} // meaningless under strong isolation
func (w *htmTx) Defer(fn func())         { w.th.deferred = append(w.th.deferred, fn) }
func (w *htmTx) Retry()                  { throwRetry() }
func (w *htmTx) Irrevocable() bool       { return false }

// ---- serial (irrevocable) wrapper ----

// serialTx is one pointer, like the wrappers above, so a serial section
// allocates nothing; whether it has stored is Thread.wrote.
type serialTx struct{ th *Thread }

func (w serialTx) Load(a memseg.Addr) uint64 { return w.th.e.mem.Load(a) }
func (w serialTx) Store(a memseg.Addr, v uint64) {
	w.th.wrote = true
	w.th.e.mem.Store(a, v)
}
func (w serialTx) LoadRange(a memseg.Addr, dst []uint64) {
	for i := range dst {
		dst[i] = w.th.e.mem.Load(a + memseg.Addr(i))
	}
}
func (w serialTx) StoreRange(a memseg.Addr, src []uint64) {
	w.th.wrote = true
	w.th.e.mem.StoreRange(a, src) // every other thread is parked: one bulk copy
}
func (w serialTx) RangeBuf(n int) []uint64 { return w.th.rangeBuf(n) }
func (w serialTx) Alloc(n int) memseg.Addr { return w.th.txAlloc(n) }
func (w serialTx) Free(a memseg.Addr)      { w.th.txFree(a) }
func (w serialTx) NoQuiesce()              {}
func (w serialTx) Defer(fn func())         { w.th.deferred = append(w.th.deferred, fn) }

// Retry in an irrevocable transaction is only legal before the first write:
// there is no undo log to roll back. The engine's condition-variable
// discipline (check the predicate before mutating) guarantees this in
// well-formed programs.
func (w serialTx) Retry() {
	if w.th.wrote {
		panic("tm: Retry after writes in an irrevocable transaction")
	}
	throwRetry()
}
func (w serialTx) Irrevocable() bool { return true }

// throwRetry aborts the attempt with the explicit (user retry) cause.
func throwRetry() {
	throwAbort(stats.Explicit)
}

func (th *Thread) requestNoQuiesce() {
	if th.depth == 1 {
		th.noQuiesce = true
	}
	// Nested NoQuiesce is ignored: the inner transaction's programmer
	// cannot know the parent's privatization behaviour (Section IV.B).
}

// txAlloc allocates eagerly; aborts roll the allocation back.
func (th *Thread) txAlloc(n int) memseg.Addr {
	a := th.Alloc(n)
	th.allocs = append(th.allocs, allocRange{a, a + memseg.Addr(n)})
	return a
}

// freeAllocs returns the attempt's allocations after an abort or cancel.
func (th *Thread) freeAllocs() {
	for _, b := range th.allocs {
		th.mc.Free(b.a)
	}
}

// Alloc allocates a block non-transactionally from the thread's cache:
// Engine.Alloc for code that holds a Thread, such as a section under a real
// lock. It panics when the heap is exhausted.
func (th *Thread) Alloc(n int) memseg.Addr {
	a, ok := th.mc.Alloc(n)
	if !ok {
		panic("tm: simulated heap exhausted")
	}
	return a
}

// Free releases a block non-transactionally into the thread's cache, under
// Engine.Free's contract: no transaction can still reach it.
func (th *Thread) Free(a memseg.Addr) { th.mc.Free(a) }

// txFree defers the release to commit time. Freeing Nil is a no-op.
func (th *Thread) txFree(a memseg.Addr) {
	if a != memseg.Nil {
		th.frees = append(th.frees, a)
	}
}

// rangeBuf backs Tx.RangeBuf: a word slice reused across the thread's
// transactions so range staging never allocates on the hot path.
func (th *Thread) rangeBuf(n int) []uint64 {
	if cap(th.rbuf) < n {
		th.rbuf = make([]uint64, n)
	}
	return th.rbuf[:n]
}
