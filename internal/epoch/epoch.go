// Package epoch is the TM engine's one grace-period primitive.
//
// GCC's libitm has no built-in privatization safety, so a committing
// transaction runs "code similar in spirit to a user-space RCU Epoch"
// (paper, Section IV): it snapshots which threads are inside transactions
// and waits for each of them to commit or abort and finish cleanup. Only
// then may the committer run non-transactional code on data its transaction
// privatized.
//
// Each registered thread owns a sequence slot: even = outside any
// transaction, odd = inside one. Snapshot loads every slot once (the "cache
// misses linear in the number of threads" of Section IV.C) and records the
// odd ones; Elapsed reports when each recorded slot has moved on; a grace
// period is the time between the two. Three waits are that one grace
// period:
//   - quiescence: QuiesceWith is Snapshot, then Elapsed polled until true;
//   - deferred reclamation: package tm seals a batch of frees with a
//     Snapshot and frees it on a later commit that finds Elapsed;
//   - the serial lock's drain: a writer that has barred new attempts
//     quiesces, so every attempt in flight has left.
//
// The TM engine's serial lock reads the same slots as its read side.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/relstore"
	"gotle/internal/spinwait"
)

// Slot is one thread's participation record. Exactly one goroutine may call
// Enter/Exit on a slot; any goroutine may observe it.
//
// The TM engine's serial lock uses seq as its read side too (package tm,
// serialLock), as libitm keeps both in a thread's shared_state.
type Slot struct {
	seq atomic.Uint64
	// exitHook, when set, runs at the top of Exit — while the slot still
	// reads as active. The TM engine installs a chaos-injection stall here
	// so a stress run can hold slots active past their transactions and
	// force quiescers to wait. Set before the slot is shared; nil costs one
	// predictable branch.
	exitHook func()
	_        [48]byte // keep slots on separate cache lines
}

// SetExitHook installs fn to run at the start of every Exit, before the slot
// transitions to inactive. Must be called before the slot's thread runs.
func (s *Slot) SetExitHook(fn func()) { s.exitHook = fn }

// Enter marks the owning thread as inside a transaction. Odd = active. The
// add is a full fence, the one fence an attempt needs: it is this side's
// half of two Dekker handshakes, the serial lock's (enter, then load the
// writer word) and quiescence's (enter, then read the heap, against a
// committer that stores to the heap, then loads the slots).
func (s *Slot) Enter() {
	s.seq.Add(1)
}

// Exit marks the owning thread as outside any transaction. It must balance a
// previous Enter; the transaction's undo/cleanup must be complete before
// Exit, since observers treat Exit as "no longer able to race". Only the
// owner writes seq, so Exit is a load and a release store, libitm's
// read_unlock: every access of the transaction is ordered before it, which
// is all a quiescer or a serial writer that sees the slot even relies on.
// The thread's later loads may pass it; the next Enter's add orders them.
func (s *Slot) Exit() {
	if s.exitHook != nil {
		s.exitHook()
	}
	relstore.Store64(&s.seq, s.seq.Load()+1)
}

// Active reports whether the slot is currently inside a transaction.
func (s *Slot) Active() bool { return s.seq.Load()%2 == 1 }

// Manager tracks the registered slots of one TM engine.
type Manager struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]*Slot]
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	m := &Manager{}
	empty := make([]*Slot, 0)
	m.slots.Store(&empty)
	return m
}

// Register adds a slot for a new thread. Registration is copy-on-write so
// Snapshot can scan without locks.
func (m *Manager) Register() *Slot {
	s := &Slot{}
	m.mu.Lock()
	old := *m.slots.Load()
	next := make([]*Slot, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	m.slots.Store(&next)
	m.mu.Unlock()
	return s
}

// Unregister removes a slot. The owning thread must be outside any
// transaction.
func (m *Manager) Unregister(s *Slot) {
	if s.Active() {
		panic("epoch: Unregister of active slot")
	}
	m.mu.Lock()
	old := *m.slots.Load()
	next := make([]*Slot, 0, len(old))
	for _, o := range old {
		if o != s {
			next = append(next, o)
		}
	}
	m.slots.Store(&next)
	m.mu.Unlock()
}

// Scratch is one grace period's record, reused across grace periods so
// that neither Snapshot nor QuiesceWith allocates in steady state. Each
// waiter owns one; the zero value is ready.
type Scratch struct {
	pend []pendingSlot
	next int // pend[:next] have moved on since the snapshot
}

type pendingSlot struct {
	s    *Slot
	seen uint64
}

// QuiesceWith waits out one grace period: it returns once every
// transaction other than self's that was active when it was called has
// finished (committed, or aborted and cleaned up), and reports how long it
// waited. self may be nil; a caller that has just committed passes its
// own slot, which may still read as active.
func (m *Manager) QuiesceWith(self *Slot, sc *Scratch) time.Duration {
	m.Snapshot(self, sc)
	if m.Elapsed(sc) {
		return 0
	}
	start := time.Now()
	var b spinwait.Backoff
	for waited := sc.next; !m.Elapsed(sc); b.Wait() {
		if sc.next != waited {
			// Fresh backoff per slot: a long wait on one slot must not
			// start the next at the maximum backoff step.
			waited = sc.next
			b.Reset()
		}
	}
	return time.Since(start)
}

// Snapshot records in sc which slots other than self are inside a
// transaction now, and returns without waiting for any of them: the start
// of a grace period that Elapsed reports the end of. A caller that has
// just committed and passes its own slot as self may free what that
// commit unlinked once Elapsed(sc) is true: every transaction that could
// still hold a pointer to it was active now. The slot list is loaded here,
// so a thread missing from it registered later and entered later.
func (m *Manager) Snapshot(self *Slot, sc *Scratch) {
	pend := sc.pend[:0]
	for _, s := range *m.slots.Load() {
		if s == self {
			continue
		}
		if v := s.seq.Load(); v%2 == 1 {
			pend = append(pend, pendingSlot{s: s, seen: v})
		}
	}
	sc.pend, sc.next = pend, 0
}

// Elapsed reports whether every transaction sc's last Snapshot recorded has
// finished. It stops at the first that has not and remembers how far it
// got, so polling a long grace period costs one load per poll.
func (m *Manager) Elapsed(sc *Scratch) bool {
	for sc.next < len(sc.pend) && sc.pend[sc.next].s.seq.Load() != sc.pend[sc.next].seen {
		sc.next++
	}
	return sc.next == len(sc.pend)
}
