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
// As in gtm_rwlock, the read side is a flag per thread, not a count in the
// lock: a reader stores its own flag and then loads the writer word, a
// writer sets the writer word and then loads every flag, and since each
// stores before it loads at least one of the two sees the other. A reader
// that sees a writer backs out and waits, which is what keeps a stream of
// readers from starving a writer. Attempts that meet no writer thus write
// only their own cache line, as a TSX transaction only reads the fallback
// lock it subscribes to. The flags are the Reader words of the threads'
// epoch slots and the registry is the epoch manager's slot list, which a
// thread joins before its first attempt and leaves after its last.
//
// state: slWriterWaiting = a writer has announced itself and is waiting for
// the readers to drain, slWriterHeld = it holds the lock, 0 = no writer.
type serialLock struct {
	state  atomic.Uint64
	_      [56]byte
	epochs *epoch.Manager
}

const (
	slWriterHeld    = uint64(1) << 63
	slWriterWaiting = uint64(1) << 62
)

// rlock enters the read side (one transaction attempt) for the thread
// owning slot s.
func (l *serialLock) rlock(s *epoch.Slot) {
	var b spinwait.Backoff
	for {
		s.Reader.Store(1)
		if l.state.Load() == 0 {
			return
		}
		// A writer is waiting or holding: it may already have seen the
		// flag and be waiting for it. Back out, then wait.
		s.Reader.Store(0)
		for l.state.Load() != 0 {
			b.Wait()
		}
	}
}

// runlock leaves the read side.
func (l *serialLock) runlock(s *epoch.Slot) {
	s.Reader.Store(0)
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
	// Phase 2: wait for every registered reader to drain, then claim. The
	// slot list is loaded after the waiting bit is set, so a thread missing
	// from it registered later and will see the bit before it enters.
	for _, s := range l.epochs.Slots() {
		// Fresh backoff per reader, as in epoch's scan.
		b.Reset()
		for s.Reader.Load() != 0 {
			b.Wait()
		}
	}
	l.state.Store(slWriterHeld)
}

// wunlock releases the write side.
func (l *serialLock) wunlock() {
	l.state.Store(0)
}
