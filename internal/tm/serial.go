package tm

import (
	"sync/atomic"

	"gotle/internal/epoch"
	"gotle/internal/spinwait"
)

// serialLock is the engine-wide serialization lock, modelled on GCC libitm's
// gtm_rwlock. Every transaction attempt holds the read side; a transaction
// that becomes irrevocable (a synchronized block performing unsafe
// operations, or a transaction that exhausted its retry budget) takes the
// write side, draining and excluding all concurrent transactions.
//
// This is the mechanism behind the paper's "lock erasure" observation
// (Section II.C): once all locks are elided onto one TM, any serialization
// of any transaction suspends unrelated transactions too.
//
// As in libitm, the read side is the word privatization safety polls, the
// thread's epoch slot (libitm's shared_state): an attempt enters its slot
// and then loads the writer word, a writer sets the writer word and then
// loads every slot, and since each writes before it loads at least one of
// the two sees the other. An attempt that sees a writer exits its slot and
// waits, so a stream of attempts cannot starve a writer. Attempts that meet
// no writer write only their own cache line, as a TSX transaction only
// reads the fallback lock it subscribes to. The registry is the epoch
// manager's slot list, and the writer's wait is the epoch grace period that
// quiescence and deferred reclamation wait out. A writer waits for attempts
// only: a thread's commit actions (quiescence, frees, deferred functions)
// follow its Exit.
//
// state: slWriterWaiting = a writer has announced itself and is waiting for
// the readers to drain, slWriterHeld = it holds the lock, 0 = no writer.
type serialLock struct {
	state  atomic.Uint64
	_      [56]byte
	epochs *epoch.Manager
	sc     epoch.Scratch // the drain's; only the writer holding the waiting bit uses it
}

const (
	slWriterHeld    = uint64(1) << 63
	slWriterWaiting = uint64(1) << 62
)

// rlock enters slot s, the read side of one transaction attempt; Exit on s
// leaves it.
func (l *serialLock) rlock(s *epoch.Slot) {
	var b spinwait.Backoff
	for {
		s.Enter()
		if l.state.Load() == 0 {
			return
		}
		// A writer is waiting or holding: it may already have seen the
		// slot and be waiting for it. Back out, then wait.
		s.Exit()
		for l.state.Load() != 0 {
			b.Wait()
		}
	}
}

// wlock acquires the write side, waiting out current readers and barring
// new ones. onWaiting, if non-nil, runs once after the waiting bit is set —
// the engine uses it to doom active hardware transactions so the drain is
// prompt, mirroring how a fallback-lock write aborts every TSX transaction
// subscribed to the lock.
func (l *serialLock) wlock(onWaiting func()) {
	var b spinwait.Backoff
	// Phase 1: set the waiting bit (contend with other writers).
	for !l.state.CompareAndSwap(0, slWriterWaiting) {
		b.Wait()
	}
	if onWaiting != nil {
		onWaiting()
	}
	// Phase 2: wait out one grace period, then claim. Its snapshot loads
	// the slot list after the waiting bit is set, so a thread missing from
	// it registered later and will see the bit before it enters, as will
	// one whose slot was read inactive or has moved on since: an attempt
	// that enters after the bit backs out without running.
	l.epochs.QuiesceWith(nil, &l.sc)
	l.state.Store(slWriterHeld)
}

// wunlock releases the write side.
func (l *serialLock) wunlock() {
	l.state.Store(0)
}
