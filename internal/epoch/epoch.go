// Package epoch implements the quiescence mechanism used by the STM.
//
// GCC's libitm has no built-in privatization safety, so a committing
// transaction runs "code similar in spirit to a user-space RCU Epoch"
// (paper, Section IV): it snapshots which threads are inside transactions
// and waits for each of them to commit or abort and finish cleanup. Only
// then may the committer run non-transactional code on data its transaction
// privatized.
//
// Each registered thread owns a sequence slot: even = outside any
// transaction, odd = inside one. A quiescer loads every slot once (the
// "cache misses linear in the number of threads" of Section IV.C) and waits
// for the odd ones to move. The TM engine's serial lock reads the same
// slots as its read side.
//
// Grace-period sharing: the scan-and-wait above is a grace period in the
// RCU sense, and grace periods compose — a scan that *starts* after a
// quiescer's entry and completes covers everything that quiescer is obliged
// to wait for. Contended quiescers therefore elect a leader: one thread
// takes a ticket (gpStarted), re-snapshots the slots *after* the ticket,
// runs the scan, and publishes the ticket as completed (gpCompleted, the
// RCU gp_seq analogue). Every other contended quiescer records its entry
// point (a gpStarted load) and parks until gpCompleted passes it — a
// ticket larger than the entry point was issued after the follower
// arrived, so its snapshot saw (and its scan waited out) every transaction
// the follower is obliged to wait for. N concurrent quiescers thus cost at
// most two scans: the incumbent leader's (which may predate some
// followers) and one successor's, whose ticket exceeds every parked
// follower's entry point. The uncontended path — no transaction in flight
// anywhere — takes no ticket and publishes nothing, so it performs no
// read-modify-write on shared counters at all: just the slot loads the
// paper's design requires.
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
	// scanHook, when set, runs on the contended path between the probe pass
	// and taking the grace-period ticket. Tests park a scanner here to prove
	// the post-ticket snapshot re-loads the slot list
	// (TestSharedGraceCoversLateRegistration). Set before the manager is
	// shared; nil costs one branch on the contended path only.
	scanHook func()
	_        [32]byte // keep the grace counters off the slots pointer's line

	// leaderMu elects the single scanning quiescer. Contended quiescers
	// that lose the race park on gpCompleted instead of scanning — the
	// rendezvous that lets one snapshot scan retire a whole convoy of
	// concurrent commits.
	leaderMu sync.Mutex
	_        [40]byte

	// gpStarted issues one ticket per leader scan, in entry order. A scan
	// whose ticket is larger than a quiescer's entry point took its slot
	// snapshot after that quiescer arrived, so its completion covers every
	// transaction the quiescer must wait for.
	gpStarted atomic.Uint64
	_         [56]byte

	// gpCompleted is the monotonically increasing completed-grace-period
	// counter (the RCU gp_seq analogue): the largest ticket whose scan ran
	// to completion. Waiting quiescers poll this single word instead of
	// re-scanning the whole slot array.
	gpCompleted atomic.Uint64
	_           [56]byte
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	m := &Manager{}
	empty := make([]*Slot, 0)
	m.slots.Store(&empty)
	return m
}

// Register adds a slot for a new thread. Registration is copy-on-write so
// Quiesce can scan without locks.
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

// Slots returns the registered slots as of the call. The slice is a
// snapshot shared with the manager: read it, do not modify it.
func (m *Manager) Slots() []*Slot { return *m.slots.Load() }

// Result describes one quiescence.
type Result struct {
	// Wait is the time spent waiting on active slots (zero when none were
	// active or the shared fast path hit).
	Wait time.Duration
	// Shared reports that the wait was satisfied by a concurrent
	// quiescer's grace period rather than by this caller's own scan.
	Shared bool
	// Scanned reports that the caller performed its own snapshot scan of
	// the slot array. Shared && !Scanned is the fast path that was covered
	// before taking a snapshot: it returns without waiting on any slot.
	Scanned bool
}

// Scratch is a reusable snapshot buffer for QuiesceWith and Snapshot. Each
// quiescing thread owns one; the zero value is ready. Reusing it across
// commits makes the quiesce path allocation-free in steady state (the seed
// allocated two slices per writer commit here).
type Scratch struct {
	pend []pendingSlot
	next int // pend[:next] have moved on since the snapshot
}

type pendingSlot struct {
	s    *Slot
	seen uint64
}

// Quiesce waits until every transaction that was active when Quiesce was
// called has finished (committed or aborted and cleaned up). self, if
// non-nil, is skipped: the caller has already committed and its slot may
// still read as active.
//
// Sharing contract: a caller's own transaction, if any, must already have
// finished its commit/abort cleanup before calling Quiesce (the engine
// guarantees this by exiting the slot first). That is what lets one
// quiescer's completed scan stand in for another's.
func (m *Manager) Quiesce(self *Slot) Result {
	var sc Scratch
	return m.QuiesceWith(self, &sc)
}

// QuiesceWith is Quiesce with a caller-owned scratch buffer, avoiding the
// per-call snapshot allocation on the engine's commit path.
func (m *Manager) QuiesceWith(self *Slot, sc *Scratch) Result {
	// Probe pass: with no transaction in flight — the common case under
	// light load, and the path every commit pays — quiesce must cost
	// nothing beyond the slot loads themselves. No ticket, no publish, no
	// read-modify-write on a shared counter.
	slots := *m.slots.Load()
	busy := false
	for _, s := range slots {
		if s != self && s.seq.Load()%2 == 1 {
			busy = true
			break
		}
	}
	if !busy {
		return Result{Scanned: true}
	}

	if m.scanHook != nil {
		m.scanHook()
	}
	start := time.Now()
	// Entry point: any leader ticket issued after this load — gpStarted
	// RMWs are totally ordered, so ticket > entry means exactly that —
	// belongs to a scan whose snapshot postdates our arrival. Its
	// completion covers everything we must wait for.
	entry := m.gpStarted.Load()
	if m.gpCompleted.Load() > entry {
		return Result{Shared: true}
	}
	if self != nil && self.seq.Load()%2 == 1 {
		// Caller outside the sharing contract: its own transaction still
		// reads as active. It can neither publish (its scan omits its own
		// slot) nor park as a follower (a leader's scan waits for *this*
		// slot to exit — mutual wait). Scan privately, off the election.
		m.scan(self, sc)
		return Result{Wait: time.Since(start), Scanned: true}
	}
	// Leader election. Losers park on gpCompleted: they are retired in
	// bulk by the first leader scan ticketed after their entry point —
	// either the incumbent's successor or, if the convoy has drained, a
	// scan they win themselves.
	var b spinwait.Backoff
	for {
		if m.gpCompleted.Load() > entry {
			return Result{Wait: time.Since(start), Shared: true}
		}
		if m.leaderMu.TryLock() {
			break
		}
		b.Wait()
	}
	if m.gpCompleted.Load() > entry {
		// Published between our check and the lock: covered after all.
		m.leaderMu.Unlock()
		return Result{Wait: time.Since(start), Shared: true}
	}
	ticket := m.gpStarted.Add(1)
	m.scan(self, sc)
	m.completeGP(ticket)
	m.leaderMu.Unlock()
	return Result{Wait: time.Since(start), Scanned: true}
}

// scan snapshots the active slots and waits each of them out. On the leader
// path it runs after the ticket draw — and Snapshot re-loads the slot
// *list*, not just the seq words: a thread that registered and entered
// between the probe's list load and the ticket is absent from the
// pre-ticket list, yet a follower covered by the ticket may be obliged to
// wait for it. Publishing a scan over the stale list would release that
// follower via gpCompleted while the missed transaction still runs.
func (m *Manager) scan(self *Slot, sc *Scratch) {
	m.Snapshot(self, sc)
	var b spinwait.Backoff
	for waited := sc.next; !m.Elapsed(sc); b.Wait() {
		if sc.next != waited {
			// Fresh backoff per slot: a long wait on one slot must not
			// start the next at the maximum backoff step.
			waited = sc.next
			b.Reset()
		}
	}
}

// Snapshot records in sc which slots other than self are inside a
// transaction now, and returns without waiting for any of them: the start
// of a grace period that Elapsed reports the end of. A caller that has
// just committed and passes its own slot as self may free what that
// commit unlinked once Elapsed(sc) is true: every transaction that could
// still hold a pointer to it was active now.
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

// completeGP publishes a finished scan: advance gpCompleted to ticket unless
// a later scan already did.
func (m *Manager) completeGP(ticket uint64) {
	for {
		cur := m.gpCompleted.Load()
		if cur >= ticket || m.gpCompleted.CompareAndSwap(cur, ticket) {
			return
		}
	}
}
