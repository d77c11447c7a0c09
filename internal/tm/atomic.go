package tm

import (
	"gotle/internal/abortsig"
	"gotle/internal/chaos"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
)

// throwAbort unwinds the current attempt.
func throwAbort(cause stats.AbortCause) { abortsig.Throw(cause) }

// Atomic executes fn as an atomic block on thread th.
//
// Semantics (mirroring the TMTS atomic block, Section II.B):
//
//   - fn may run multiple times; it must confine its side effects to Tx
//     operations and Tx.Defer actions.
//   - A nil return commits. A non-nil return cancels: all transactional
//     effects roll back and Atomic returns the error.
//   - Tx.Retry cancels and returns ErrRetry (condition waiting).
//   - After the retry budget's worth of aborts (Config.MaxRetries) the
//     block re-executes under the engine's serial lock, irrevocably. An HTM
//     attempt's capacity abort goes there at once: the same write set would
//     overflow again.
//
// Nested Atomic calls are flattened into the parent transaction.
func (e *Engine) Atomic(th *Thread, fn func(Tx) error) error {
	return e.AtomicOpts(th, CallOpts{}, fn)
}

// CallOpts parameterises one atomic-block execution beyond the engine
// defaults. The zero value reproduces Atomic exactly.
type CallOpts struct {
	// Resolve, when non-nil, is consulted at the start of every attempt —
	// after the attempt is pinned under the serial read lock — and selects
	// the mechanism and whether Tx.NoQuiesce is honored for that attempt.
	// Because the serial read lock is held across the attempt and
	// configuration swaps happen under Engine.Drain (the write side), a
	// resolution observed under the read lock cannot change mid-attempt. A
	// serial run is mechanism-agnostic and does not consult it.
	Resolve func() (mech Mech, honorNoQuiesce bool)
	// Obs, when non-nil, additionally receives this call's commit/abort/
	// serial/quiesce events (per-mutex statistics for the adaptive
	// controller), on the calling thread's own stripe.
	Obs *stats.Counters
	// OnCapacity, when non-nil, is called after an HTM attempt's capacity
	// abort, just before the call goes serial. It runs on the section's
	// path, outside any attempt, so it must neither block nor allocate.
	OnCapacity func()
}

// Default retry budgets, by the mechanism the failed attempt ran under: the
// retries after the first attempt, so an HTM call makes 3 attempts before
// going serial and an STM call 9. GCC's STM retries longer than its HTM.
// A capacity abort of an HTM attempt spends no budget: it goes serial at
// once.
const (
	htmRetries = 2
	stmRetries = 8
)

// AtomicOpts executes fn as an atomic block with per-call options.
func (e *Engine) AtomicOpts(th *Thread, o CallOpts, fn func(Tx) error) error {
	if th.depth > 0 {
		// Flat nesting: run in the parent's transaction. A cancel or retry
		// unwinds the whole outer transaction via the returned error / the
		// abort signal respectively. The parent's mechanism and observer
		// stay in charge.
		th.depth++
		defer func() { th.depth-- }()
		return fn(th.cur)
	}
	if e.inj.Fire(th.id, chaos.SerialEntry) {
		// Injected serial-mode entry: proceed as if the retry budget were
		// already spent. Under HTM this dooms every running transaction;
		// under STM it drains them — either way the whole engine feels it
		// (the "lock erasure" effect the chaos suite must show is safe).
		return e.runSerial(th, &o, fn)
	}
	var backoff spinwait.Backoff
	retries := 0
	for {
		err, committed, cause := e.attempt(th, &o, fn)
		if committed {
			return nil
		}
		if err != nil {
			return err // user cancel: already rolled back
		}
		if cause == stats.Explicit {
			return ErrRetry
		}
		if cause == stats.Capacity && th.mech == MechHTM {
			// The hardware marks a capacity abort not worth retrying (the
			// RETRY bit is clear), and libitm goes straight to the serial
			// lock on one (htm_abort_should_retry).
			if o.OnCapacity != nil {
				o.OnCapacity()
			}
			return e.runSerial(th, &o, fn)
		}
		retries++
		budget := e.cfg.MaxRetries
		if budget <= 0 {
			// Decided per attempt, not per engine: in a hybrid engine the
			// same call site runs HTM or STM as its mutex's policy moves.
			budget = stmRetries
			if th.mech == MechHTM {
				budget = htmRetries
			}
		}
		if retries > budget {
			return e.runSerial(th, &o, fn)
		}
		backoff.Wait()
	}
}

// Synchronized executes fn irrevocably under the serial lock, like a TMTS
// synchronized block containing unsafe operations: all concurrent
// attempts are drained (and, under HTM, aborted) first, as in Engine.Drain.
func (e *Engine) Synchronized(th *Thread, fn func(Tx) error) error {
	if th.depth > 0 {
		panic("tm: Synchronized inside an atomic block")
	}
	return e.runSerial(th, nil, fn)
}

// attempt runs fn once speculatively. It returns committed=true on success;
// otherwise cause carries the abort cause, and err is non-nil only for a
// user cancel (which also rolls back).
func (e *Engine) attempt(th *Thread, o *CallOpts, fn func(Tx) error) (err error, committed bool, cause stats.AbortCause) {
	e.serial.rlock(th.slot)
	mech := e.defaultMech()
	honorNoQ := e.cfg.HonorNoQuiesce
	if o != nil && o.Resolve != nil {
		// Resolved under the read lock: a concurrent Engine.Drain (policy
		// swap) cannot complete until this attempt releases it, so the
		// resolution holds for the whole attempt.
		m, h := o.Resolve()
		if m != MechDefault {
			mech = m
		}
		honorNoQ = h
	}
	th.resetTxnState()
	th.mech = mech
	th.honorNoQ = honorNoQ
	th.observe(o)

	var tx Tx = th.stx
	if mech == MechHTM {
		tx = th.htx
	}
	th.cur = tx
	th.depth = 1

	readOnly := false
	func() {
		defer func() {
			th.depth = 0
			th.cur = nil
			if r := recover(); r != nil {
				sig := abortsig.From(r)
				if sig == nil {
					// Unrelated panic: roll back, release, propagate. The
					// attempt reaches neither Commit nor Abort, so record it
					// for the derived Starts count.
					th.st.AbandonedStart()
					th.rollbackLive()
					th.slot.Exit()
					panic(r)
				}
				th.rollbackLive()
				cause = sig.Cause
			}
		}()
		th.beginTx()
		err = fn(tx)
		if err != nil {
			th.rollbackLive()
			cause = stats.Explicit // cancelled; cause unused when err != nil
			return
		}
		readOnly = th.commitTx()
		committed = true
	}()

	// The slot stays active through rollback (quiescers must wait out undo
	// operations) and through commit (so a concurrent quiescer observes
	// the transition). Exit also leaves the serial read side.
	th.slot.Exit()

	if mech == MechSTM && th.stx != nil {
		th.st.ReadsDeduped(th.stx.TakeDedupedReads())
	}

	if committed {
		th.countCommit(readOnly)
		e.postCommit(th, readOnly)
		return nil, true, 0
	}

	// Abort path: return eagerly-allocated blocks.
	th.freeAllocs()
	if err != nil {
		// User cancel: not a conflict, no stats abort classification beyond
		// explicit.
		th.countAbort(stats.Explicit)
		return err, false, stats.Explicit
	}
	th.countAbort(cause)
	return nil, false, cause
}

// observe pins the call's per-mutex counters, if it has any, for one
// top-level execution.
func (th *Thread) observe(o *CallOpts) {
	th.obs = nil
	if o != nil && o.Obs != nil {
		th.obs = o.Obs.Stripe(th.id)
	}
}

// countCommit and countAbort record an attempt's end on the engine's counters
// and the call's.
func (th *Thread) countCommit(readOnly bool) {
	th.st.Commit(readOnly)
	th.obs.Commit(readOnly)
}

func (th *Thread) countAbort(cause stats.AbortCause) {
	th.st.Abort(cause)
	th.obs.Abort(cause)
}

func (th *Thread) beginTx() {
	if th.mech == MechHTM {
		th.htx.Begin()
	} else {
		th.stx.Begin()
	}
}

func (th *Thread) commitTx() (readOnly bool) {
	if th.mech == MechHTM {
		return th.htx.Commit()
	}
	return th.stx.Commit()
}

// rollbackLive undoes the running attempt if one is live.
func (th *Thread) rollbackLive() {
	if th.stx != nil && th.stx.Live() {
		th.stx.OnAbort()
	}
	if th.htx != nil && th.htx.Live() {
		th.htx.OnAbort()
	}
}

// postCommit applies the quiescence policy, releases freed blocks and runs
// deferred actions, outside the serial read side: a serial section may run.
func (e *Engine) postCommit(th *Thread, readOnly bool) {
	// The allocator requires freeing transactions to quiesce under STM
	// (Section VII.C); under HTM the InvalidateBlock pass below provides
	// the equivalent guarantee through strong isolation. In a hybrid
	// engine the attempt's own mechanism decides: an HTM-executed block
	// is strongly isolated regardless of what else the engine can run.
	stmAttempt := th.mech == MechSTM
	mustQuiesce := stmAttempt && len(th.frees) > 0
	wantQuiesce := false
	if stmAttempt {
		switch e.cfg.Quiesce {
		case QuiesceAll:
			wantQuiesce = true
		case QuiesceWriters:
			wantQuiesce = !readOnly
		case QuiesceNone:
			wantQuiesce = false
		}
		if wantQuiesce && th.noQuiesce && th.honorNoQ {
			wantQuiesce = false
			th.st.NoQuiesce()
		}
	}
	if mustQuiesce && !wantQuiesce && e.cfg.DeferredReclaim {
		// Only the allocator asked for a wait, and its rule binds the
		// blocks, not this thread: park them (reclaim.go).
		th.park()
	} else {
		graced := mustQuiesce || wantQuiesce
		if graced {
			th.quiesce()
		}
		for _, a := range th.frees {
			// A grace period has retired every attempt that could hold the
			// block — HTM attempts enter their slot too — so only a free
			// without one dooms the block's HTM readers.
			if e.htm != nil && !graced {
				e.htm.InvalidateBlock(a, e.mem.BlockSize(a))
			}
			th.mc.Free(a)
		}
	}
	if th.parkedWords != 0 {
		th.reclaim()
	}
	for _, fn := range th.deferred {
		fn()
	}
}

// quiesce waits out one grace period after the thread's commit and records
// it.
func (th *Thread) quiesce() {
	wait := th.e.epochs.QuiesceWith(th.slot, &th.qs)
	th.st.Quiesce(wait)
	th.obs.Quiesce(wait)
}

// runSerial executes fn irrevocably: it drains all transactions via the
// serial lock's write side, then runs fn with direct memory access.
func (e *Engine) runSerial(th *Thread, o *CallOpts, fn func(Tx) error) error {
	e.serial.wlock(func() {
		if e.htm != nil {
			e.htm.DoomAll(stats.Serial)
		}
	})
	defer e.serial.wunlock()

	th.resetTxnState()
	th.observe(o)
	th.st.SerialRun()
	th.obs.SerialRun()
	th.wrote = false
	th.cur = serialTx{th: th}
	th.depth = 1
	var err error
	retried := false
	func() {
		defer func() {
			th.depth = 0
			th.cur = nil
			if r := recover(); r != nil {
				if sig := abortsig.From(r); sig != nil && sig.Cause == stats.Explicit {
					retried = true
					return
				}
				th.st.AbandonedStart()
				panic(r)
			}
		}()
		err = fn(th.cur)
	}()
	if retried {
		th.freeAllocs()
		th.countAbort(stats.Explicit)
		return ErrRetry
	}
	if err != nil {
		if th.wrote {
			th.st.AbandonedStart()
			panic("tm: cancel of an irrevocable transaction after writes")
		}
		th.freeAllocs()
		th.countAbort(stats.Explicit)
		return err
	}
	th.countCommit(!th.wrote)
	// No quiescence needed: the write lock excluded every transaction.
	for _, a := range th.frees {
		th.mc.Free(a)
	}
	if th.parkedWords != 0 {
		th.reclaim()
	}
	for _, fnD := range th.deferred {
		fnD()
	}
	return nil
}

// FreeTM releases a block non-transactionally but TM-safely: under HTM it
// invalidates the block's lines first (dooming transactional readers), and
// under STM the caller must have privatized the block via a quiescing
// transaction.
func (e *Engine) FreeTM(a memseg.Addr) {
	if a == memseg.Nil {
		return
	}
	if e.htm != nil {
		e.htm.InvalidateBlock(a, e.mem.BlockSize(a))
	}
	e.mem.Free(a)
}
