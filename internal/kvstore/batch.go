package kvstore

import (
	"errors"

	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// MutateBatch is the one way into a shard: the serving path hands it the
// adjacent mutations of one connection's pipeline, the single-key mutators
// (Set, Delete, Incr, ...) a batch of one. Where the touched shards can run
// as one transaction (tle.Fuse) the batch is a SINGLE critical section — one
// begin/commit, one quiescence — and otherwise one section per op; either
// way one WAL ticket per touched shard. The fusion boundary is the protocol
// batch: ops that arrived together may fuse, ops from different reads never
// do (see PORTING.md).

// BatchVerb selects one operation of a batch.
type BatchVerb int

const (
	BatchSet BatchVerb = iota
	BatchAdd
	BatchReplace
	BatchCAS
	BatchDelete
	BatchIncr
	BatchDecr
)

// IsStore reports whether v is a conditional-store verb (takes a value).
func (v BatchVerb) IsStore() bool { return v <= BatchCAS }

// BatchOp is one mutation in a batch. Key and Val must remain stable until
// MutateBatch returns (the commit stream frames the redo records, which
// alias them, before that).
type BatchOp struct {
	Verb  BatchVerb
	Key   []byte
	Val   []byte // store verbs only
	Flags uint32 // store verbs only
	Cas   uint64 // BatchCAS only
	Delta uint64 // BatchIncr/BatchDecr only
}

// BatchResult is the per-op outcome. Exactly one of the verb-specific
// fields is meaningful, selected by the op's Verb; Err, when non-nil,
// means the op was rejected before the transaction and did not run.
type BatchResult struct {
	Store   StoreStatus // store verbs
	Removed bool        // BatchDelete
	Incr    IncrStatus  // BatchIncr/BatchDecr
	NewVal  uint64      // BatchIncr/BatchDecr, valid when Incr == IncrStored
	Err     error
}

// Batch validation errors (allocated once: the reject path stays on the
// zero-alloc budget).
var (
	ErrBadKey = errors.New("kvstore: bad key length")
	ErrBadVal = errors.New("kvstore: value exceeds MaxValLen")

	errResLen      = errors.New("kvstore: MutateBatch len(ops) != len(res)")
	errScratchMove = errors.New("kvstore: BatchScratch reused across stores")
)

// BatchScratch carries the reusable state of one connection's batches.
// Each executor goroutine owns one; the zero value is ready. A scratch
// must stay with one Store.
type BatchScratch struct {
	// Tickets holds one durability handle per touched shard for the most
	// recent batch (empty when no WAL is attached or nothing mutated).
	// Wait on every entry before acking the batch's ops.
	Tickets []wal.Ticket

	hash    []uint64 // per op
	shardOf []int    // per op; -1 = rejected before the transaction
	pos     []int    // per op: index into touched
	touched []int    // distinct shard indices, ascending
	ms      []*tle.Mutex
	recs    [][]wal.Record // per touched shard, staged inside the tx
	lastSeq []uint64       // per touched shard: highest sequence number published, 0 = none
	store   *Store
	fuse    *tle.Fuse
	flushFn func() // one closure, reused across batches (tx.Defer target)

	// The section in flight, parked here so bodyFn (bound once) can reach
	// it: fresh closures over ops/res would cost an allocation per batch.
	// bodyFn applies curOps[lo:hi].
	curOps []BatchOp
	curRes []BatchResult
	lo, hi int
	bodyFn func(tx tm.Tx) error

	// numB is the digit arena for fused incr/decr results: applyIncr
	// appends each op's decimal bytes here so a batch of counters stages
	// WAL records without per-op allocations. Reset per attempt in
	// batchBody; consumed by flushFn before the next batch reuses it.
	numB []byte
}

// growOps readies the per-op slices for n ops.
func (sc *BatchScratch) growOps(n int) {
	if cap(sc.hash) < n {
		sc.hash = make([]uint64, n)
		sc.shardOf = make([]int, n)
		sc.pos = make([]int, n)
	}
	sc.hash = sc.hash[:n]
	sc.shardOf = sc.shardOf[:n]
	sc.pos = sc.pos[:n]
}

// MutateBatch applies ops in order, filling res (len(res) must equal
// len(ops)) with per-op outcomes. Rejected ops (bad key/value length) get
// res[i].Err and are skipped. The contract is sequential always, atomic
// only when fused: op i observes the effects of ops 0..i-1, exactly as if
// each had run in its own critical section back to back; when every touched
// shard elides onto one TM mechanism right now, the batch runs as ONE
// critical section spanning them and commits as a group; when they cannot
// (a lock-based policy across shards, or the adaptive controller holding two
// of them on different mechanisms), each op runs in its own section on its
// own shard, and other threads' sections may interleave between them. When
// a WAL is attached, sc.Tickets receives one group-commit ticket per
// touched shard either way. A returned error is an engine failure.
//
//gotle:hotpath per-batch mutation entry; covered by the serve-smoke AllocsPerRun gate
func (s *Store) MutateBatch(th *tm.Thread, ops []BatchOp, res []BatchResult, sc *BatchScratch) error {
	if len(ops) != len(res) {
		return errResLen
	}
	sc.Tickets = sc.Tickets[:0]
	if len(ops) == 0 {
		return nil
	}
	if sc.store == nil {
		sc.store = s
		sc.fuse = s.r.NewFuse()
		//gotle:allow hotalloc bound once per scratch lifetime, reused by every batch
		sc.bodyFn = func(tx tm.Tx) error { return s.batchBody(tx, sc) }
		// The one hand-off of committed records downstream, run post-commit:
		// each touched shard's run goes to the commit stream in one call. One
		// closure for the life of the scratch: tx.Defer on the hot path must
		// not allocate a fresh func per batch.
		//gotle:allow hotalloc bound once per scratch lifetime, reused by every batch
		sc.flushFn = func() {
			for j, recs := range sc.recs {
				if len(recs) > 0 {
					s.stream.Publish(sc.touched[j], recs)
					sc.lastSeq[j] = recs[len(recs)-1].Seq
				}
			}
		}
	} else if sc.store != s {
		return errScratchMove
	}

	// Route: validate, hash, and collect the distinct shards in ascending
	// index order — the Fuse needs a stable mutex set, and a canonical order
	// keeps attribution deterministic.
	sc.growOps(len(ops))
	sc.touched = sc.touched[:0]
	nsh := uint64(len(s.shards))
	for i := range ops {
		op := &ops[i]
		if len(op.Key) == 0 || len(op.Key) > MaxKeyLen {
			res[i] = BatchResult{Err: ErrBadKey}
			sc.shardOf[i] = -1
			continue
		}
		if op.Verb.IsStore() && len(op.Val) > MaxValLen {
			res[i] = BatchResult{Err: ErrBadVal}
			sc.shardOf[i] = -1
			continue
		}
		h := fnv1a(op.Key)
		sc.hash[i] = h
		sc.shardOf[i] = int(h % nsh)
	}
	for i := range ops {
		si := sc.shardOf[i]
		if si < 0 {
			continue
		}
		at := len(sc.touched)
		for j, t := range sc.touched {
			if t == si {
				at = -1
				sc.pos[i] = j
				break
			}
			if t > si {
				at = j
				break
			}
		}
		if at < 0 {
			continue
		}
		sc.touched = append(sc.touched, 0)
		copy(sc.touched[at+1:], sc.touched[at:])
		sc.touched[at] = si
		sc.pos[i] = at
		// Earlier ops' pos entries pointing at shifted slots move right.
		for k := 0; k < i; k++ {
			if sc.shardOf[k] >= 0 && sc.pos[k] >= at {
				sc.pos[k]++
			}
		}
	}
	if len(sc.touched) == 0 {
		return nil
	}
	if cap(sc.ms) < len(sc.touched) {
		sc.ms = make([]*tle.Mutex, len(sc.touched))
		sc.recs = make([][]wal.Record, len(sc.touched))
		sc.lastSeq = make([]uint64, len(sc.touched))
	}
	sc.ms = sc.ms[:len(sc.touched)]
	sc.recs = sc.recs[:len(sc.touched)]
	sc.lastSeq = sc.lastSeq[:len(sc.touched)]
	for j, si := range sc.touched {
		sc.ms[j] = s.shards[si].mu
		sc.lastSeq[j] = 0
	}

	// The critical section: the whole batch fused over every touched shard.
	// Every res[i] and sc.recs entry the body touches is write-only across
	// attempts: reset at the top, assigned wholesale, never read — a retry
	// cannot observe a prior attempt.
	sc.curOps, sc.curRes = ops, res
	sc.lo, sc.hi, sc.fuse.Ms = 0, len(ops), sc.ms
	err := sc.fuse.Do(th, sc.bodyFn)
	if err == tle.ErrUnfusable {
		// The shards cannot run as one transaction right now (the body has
		// not run): the same ops in the same order through the same body,
		// one single-shard section each, which every policy can run.
		err = nil
		for i := 0; i < len(ops) && err == nil; i++ {
			if sc.shardOf[i] < 0 {
				continue
			}
			sc.lo, sc.hi, sc.fuse.Ms = i, i+1, sc.ms[sc.pos[i]:sc.pos[i]+1]
			err = sc.fuse.Do(th, sc.bodyFn)
		}
	}
	if s.wal != nil {
		// A shard's records become durable in sequence order, so the ticket
		// for the highest one published covers the shard's whole share.
		for j, seq := range sc.lastSeq {
			if seq != 0 {
				sc.Tickets = append(sc.Tickets, s.wal.TicketFor(sc.touched[j], seq))
			}
		}
	}
	return err
}

// batchBody is the transaction body over sc.curOps[sc.lo:sc.hi]: the one
// place a shard is mutated.
//
//gotle:hotpath the mutating transaction body, entered via the scratch's bound closure
func (s *Store) batchBody(tx tm.Tx, sc *BatchScratch) error {
	ops, res := sc.curOps, sc.curRes
	for j := range sc.recs {
		sc.recs[j] = sc.recs[j][:0]
	}
	sc.numB = sc.numB[:0]
	for i := sc.lo; i < sc.hi; i++ {
		si := sc.shardOf[i]
		if si < 0 {
			continue
		}
		op := &ops[i]
		sh := &s.shards[si]
		switch op.Verb {
		case BatchSet, BatchAdd, BatchReplace, BatchCAS:
			st := s.applyStore(tx, sh, sc.hash[i], op.Key, op.Val, op.Flags, op.Verb, op.Cas)
			res[i] = BatchResult{Store: st}
			if st == Stored {
				s.stageWAL(tx, sh, sc, sc.pos[i], wal.OpSet, op.Flags, op.Key, op.Val)
			}
		case BatchDelete:
			rm := s.applyDelete(tx, sh, sc.hash[i], op.Key)
			res[i] = BatchResult{Removed: rm}
			if rm {
				s.stageWAL(tx, sh, sc, sc.pos[i], wal.OpDelete, 0, op.Key, nil)
			}
		case BatchIncr, BatchDecr:
			base := len(sc.numB)
			nv, full, fl, st := s.applyIncr(tx, sh, sc.hash[i], op.Key, op.Delta, op.Verb == BatchDecr, sc.numB)
			var nb []byte
			if full != nil {
				// Re-adopt the arena: append inside applyIncr may have
				// grown it. Records staged by earlier ops keep aliasing
				// the old backing array — safe, since staged bytes are
				// immutable and the records pin that array — and growth
				// amortizes to zero once the arena reaches the
				// connection's steady batch shape.
				sc.numB = full
				nb = full[base:]
			}
			res[i] = BatchResult{Incr: st, NewVal: nv}
			if st == IncrStored {
				s.stageWAL(tx, sh, sc, sc.pos[i], wal.OpSet, fl, op.Key, nb)
			}
		default:
			res[i] = BatchResult{Err: ErrBadKey}
		}
	}
	// Unconditional: the engine enforces the allocator-safety wait for
	// freeing attempts regardless of this call (under DeferredReclaim the
	// committing thread parks the blocks until it has passed), and the
	// store never touches privatized item memory non-transactionally after
	// commit, so policy-level quiescence is never needed here.
	//gotle:allow noqpriv allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
	tx.NoQuiesce()
	if s.stream != nil {
		tx.Defer(sc.flushFn) // publishes whatever the ops above staged
	}
	return nil
}

// stageWAL is the commit-pipeline tap. It draws the shard's next commit
// sequence number inside tx — so the number rolls back with the attempt and
// the log order equals the shard's serialization order — and stages a redo
// record in the scratch; flushFn publishes every touched shard's run
// post-commit, the sanctioned channel for irrevocable effects, keeping the
// fsync wait out of the transaction. Key/val alias the op's buffers: the
// commit stream frames them during the deferred call, before MutateBatch
// returns.
func (s *Store) stageWAL(tx tm.Tx, sh *shard, sc *BatchScratch, pos int, op wal.Op, flags uint32, key, val []byte) {
	if s.stream == nil {
		return
	}
	seq := tx.Load(sh.base+shWalSeq) + 1
	tx.Store(sh.base+shWalSeq, seq)
	sc.recs[pos] = append(sc.recs[pos], wal.Record{Seq: seq, Op: op, Flags: flags, Key: key, Val: val})
}
