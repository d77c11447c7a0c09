package tm

import (
	"sync"
	"time"

	"gotle/internal/epoch"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// Deferred reclamation (Config.DeferredReclaim): the RCU call_rcu analogue
// of the paper's synchronous quiescence.
//
// The allocator-safety rule of Section VII.C — a block freed inside a
// transaction must not be reused while a doomed concurrent transaction
// could still write through a stale pointer — does not require the
// *committing thread* to wait out the grace period; it requires the
// *block* to. A committing transaction therefore hands its freed blocks
// (with nothing else: the commit is already durable and visible) to a
// background reclaimer and returns immediately. The reclaimer batches
// everything handed over during a short accumulation window, runs ONE
// epoch quiescence for the whole batch, and only then releases the blocks
// to the allocator.
//
// This is what makes grace-period sharing real on the serving path:
// privatizing commits from different connections arrive within the same
// window and are retired by a single slot scan — N commits, one grace
// period, N-1 scans avoided — where the synchronous design gave each
// commit its own (almost always uncontended, never shared) probe.
//
// Correctness relies on the handoff ordering: the committing thread
// exits its epoch slot before postCommit runs, and the reclaimer's
// quiescence starts strictly after the handoff (both are under r.mu), so
// every transaction that could hold a stale pointer to a batched block
// was active when the reclaimer's scan snapshot was taken and is waited
// out by it.

// reclaimWindow is the accumulation delay between the first handoff of a
// batch and its grace period. Long enough for commits from other
// connections to join the batch (sharing), short enough that parked
// memory stays bounded: at most (free rate x window) blocks are held.
const reclaimWindow = 500 * time.Microsecond

// reclaimMaxPending caps the parked blocks; beyond it a handoff wakes the
// reclaimer immediately rather than waiting out the window.
const reclaimMaxPending = 4096

type reclaimer struct {
	e  *Engine
	st *stats.Stripe // stripe 0: thread ids start at 1

	mu      sync.Mutex
	blocks  []memseg.Addr
	commits uint64 // commits contributing to the current batch

	wake     chan struct{}
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}

	// retireMu serializes retire itself (the loop and a backpressured
	// handOff may race); sc is the scratch of whoever holds it.
	retireMu sync.Mutex
	sc       epoch.Scratch
}

func newReclaimer(e *Engine) *reclaimer {
	r := &reclaimer{
		e:      e,
		st:     e.ctr.Stripe(0),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.loop()
	return r
}

// handOff transfers one committed transaction's freed blocks to the
// reclaimer. Called from postCommit, after the committing thread's epoch
// slot has exited.
func (r *reclaimer) handOff(frees []memseg.Addr) {
	r.mu.Lock()
	r.blocks = append(r.blocks, frees...)
	r.commits++
	n := len(r.blocks)
	r.mu.Unlock()
	if n >= reclaimMaxPending {
		// Backpressure: skip the accumulation window for this batch.
		r.retire()
		return
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *reclaimer) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
		case <-r.stopCh:
			r.retire()
			return
		}
		// Accumulation window: let privatizing commits from other
		// connections join the batch before the one shared grace period.
		time.Sleep(reclaimWindow)
		r.retire()
	}
}

// retire runs one grace period over the current batch and releases its
// blocks. Safe to call from any goroutine.
func (r *reclaimer) retire() {
	r.retireMu.Lock()
	defer r.retireMu.Unlock()
	r.mu.Lock()
	blocks := r.blocks
	commits := r.commits
	r.blocks = nil
	r.commits = 0
	r.mu.Unlock()
	if len(blocks) == 0 {
		return
	}
	res := r.e.epochs.QuiesceWith(nil, &r.sc)
	r.st.Quiesce(res.Wait)
	if res.Shared {
		r.st.SharedGrace(!res.Scanned)
	}
	// Every batched commit past the first shared this grace period
	// instead of running (or even probing) its own.
	r.st.SharedGraceBatch(commits - 1)
	for _, a := range blocks {
		if r.e.htm != nil {
			r.e.htm.InvalidateBlock(a, r.e.mem.BlockSize(a))
		}
		r.e.mem.Free(a)
	}
}

func (r *reclaimer) stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	<-r.done
}
