package tm

import "gotle/internal/memseg"

// Deferred reclamation (Config.DeferredReclaim): the RCU call_rcu analogue
// of the paper's synchronous quiescence, run by the thread that freed.
//
// The allocator-safety rule of Section VII.C — a block freed inside a
// transaction must not be reused while a doomed concurrent transaction
// could still write through a stale pointer — does not require the
// *committing thread* to wait out the grace period; it requires the
// *block* to. A freeing commit that the policy layer let skip quiescence
// therefore parks its blocks on its own Thread and returns. The thread
// seals what it has parked into a batch by recording which other epoch
// slots are inside a transaction (epoch.Manager.Snapshot, no waiting), and
// each of its later commits polls that record: once every recorded
// transaction has moved on, the grace period is over and the thread frees
// the batch itself — on its own CPU, onto the free lists its next
// allocations pop. Commits that park while a batch is sealed join the next
// one: one grace period per batch, the rest counted as shared.
//
// Correctness: postCommit runs after the committing slot has exited, so a
// snapshot taken there postdates every commit whose frees it seals, and a
// transaction that could hold a stale pointer into the batch was active
// then and is recorded; one that starts later cannot reach the blocks.
// HTM attempts enter their slot like STM ones, so the grace period retires
// them too and a parked block skips htm.InvalidateBlock.

// reclaimMaxWords bounds the payload words one thread may park. A commit
// that leaves more parked, with its sealed batch still waiting, waits out a
// grace period and frees everything: backpressure while peers stay inside
// transactions, and the most a thread that stops committing holds.
const reclaimMaxWords = 1 << 14

// park takes the committed attempt's frees onto the thread's open batch.
func (th *Thread) park() {
	if len(th.open) == 0 {
		th.st.Quiesce(0) // the batch's one grace period; nobody waits for it
	} else {
		th.st.SharedGrace()
	}
	for _, a := range th.frees {
		th.parkedWords += th.e.mem.BlockSize(a)
	}
	th.open = append(th.open, th.frees...)
	th.st.Parked(uint64(len(th.frees)))
}

// reclaim frees the sealed batch once its grace period is over and seals
// the open one behind it. Every commit with blocks parked calls it.
func (th *Thread) reclaim() {
	for len(th.sealed) == 0 || th.e.epochs.Elapsed(&th.gp) {
		th.freeParked(th.sealed)
		th.sealed = th.sealed[:0]
		if len(th.open) == 0 {
			return
		}
		th.sealed, th.open = th.open, th.sealed
		th.e.epochs.Snapshot(th.slot, &th.gp)
	}
	if th.parkedWords > reclaimMaxWords {
		th.flushParked()
	}
}

// flushParked waits out one grace period and frees everything parked.
func (th *Thread) flushParked() {
	th.quiesce()
	th.freeParked(th.sealed)
	th.freeParked(th.open)
	th.sealed, th.open = th.sealed[:0], th.open[:0]
}

func (th *Thread) freeParked(blocks []memseg.Addr) {
	for _, a := range blocks {
		th.parkedWords -= th.e.mem.BlockSize(a)
		th.mc.Free(a)
	}
	th.st.Reclaimed(uint64(len(blocks)))
}
