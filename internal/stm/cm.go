package stm

import (
	"sync/atomic"

	"gotle/internal/spinwait"
	"gotle/internal/tmclock"
)

// Contention management. The paper closes by arguing that "the TMTS should
// allow programmers to specify contention management policies, so that the
// effect of quiescence can be more predictable" (Section VIII) — GCC's STM
// offers none beyond retry/serialize, and Section VII.C shows quiescence
// acting as accidental congestion control in its absence. This file makes
// the conflict-resolution policy explicit and selectable.

// CM selects how a transaction responds to an encounter-time lock conflict.
type CM int

const (
	// CMSuicide aborts immediately (GCC's effective behaviour; default).
	CMSuicide CM = iota
	// CMPolite spins briefly for the lock holder to finish before
	// aborting, trading latency for fewer aborts.
	CMPolite
	// CMTimestamp lets the older transaction (earlier snapshot) wait for
	// the younger to finish, while younger transactions abort to older
	// ones — a simple priority scheme without livelock.
	CMTimestamp
)

func (c CM) String() string {
	switch c {
	case CMSuicide:
		return "suicide"
	case CMPolite:
		return "polite"
	case CMTimestamp:
		return "timestamp"
	default:
		return "cm?"
	}
}

// prioSlots bounds the priority table; thread ids hash into it. A
// collision can only cause a bounded spurious wait, never an error.
const prioSlots = 1024

// politeSpins bounds CMPolite's wait.
const politeSpins = 64

// announcePriority publishes the transaction's snapshot as its priority
// (smaller = older = wins under CMTimestamp).
func (t *Tx) announcePriority() {
	if t.s.cm == CMTimestamp {
		t.s.prio[t.id%prioSlots].Store(t.rv)
	}
}

// waitCM is invoked when an access finds its orec locked by another
// transaction. It reports true when the caller should re-read the orec and
// retry the access, false when the transaction must abort.
func (t *Tx) waitCM(orec *atomic.Uint64) bool {
	switch t.s.cm {
	case CMPolite:
		var b spinwait.Backoff
		for i := 0; i < politeSpins; i++ {
			if !tmclock.Locked(orec.Load()) {
				return true
			}
			b.Wait()
		}
		return false
	case CMTimestamp:
		v := orec.Load()
		if !tmclock.Locked(v) {
			return true
		}
		owner := tmclock.Owner(v)
		ownerPrio := t.s.prio[owner%prioSlots].Load()
		// Older (smaller snapshot) waits; ties break by id so exactly one
		// side ever waits.
		if t.rv < ownerPrio || (t.rv == ownerPrio && t.id < owner) {
			var b spinwait.Backoff
			for i := 0; i < 1<<14; i++ {
				if !tmclock.Locked(orec.Load()) {
					return true
				}
				b.Wait()
			}
		}
		return false
	default: // CMSuicide
		return false
	}
}
