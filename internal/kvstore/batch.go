package kvstore

import (
	"errors"

	"gotle/internal/tm"
	"gotle/internal/wal"
)

// MutateBatch is the one way into a shard: the serving path hands it the
// adjacent mutations of one connection's pipeline, the single-key mutators
// (Set, Delete, Incr, ...) a batch of one. Each op is its own shard's
// critical section, exactly as under the lock baseline: an elided lock is
// invisible to the TM (the paper's lock erasure, Section IV.A), so one
// transaction spanning several shards would collide with every other
// batch that touched any of them. Each section ends by reading its shard's
// WAL sequence word, and each op's result carries the ticket for the
// sequence it read: a reply waits for the ticket of every shard sequence
// its sections read (see PORTING.md).

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
	// Durable is the ticket for the shard sequence the op's section read:
	// it covers what the op wrote and every write it observed, whatever
	// the outcome. Wait on it before acking; zero with no WAL attached.
	Durable wal.Ticket
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
	recs    []wal.Record // the section in flight's redo records, published at its commit
	store   *Store
	flushFn func() // one closure, reused across sections (tx.Defer target)

	// The section in flight, parked here so bodyFn (bound once) can reach
	// it: a fresh closure per op would cost an allocation.
	op     *BatchOp
	res    *BatchResult
	hash   uint64
	si     int
	seq    uint64 // the shard sequence the section read last
	bodyFn func(tx tm.Tx) error

	// numB is the digit arena for incr/decr results: applyIncr appends each
	// op's decimal bytes here so a run of counters stages WAL records
	// without per-op allocations. Emptied per batch; each section's attempt
	// truncates it to numBase, where that section started: a retry drops its
	// earlier attempt's digits, and no section rewrites the bytes an earlier
	// section's record was staged from.
	numB    []byte
	numBase int
}

// MutateBatch applies ops in order, filling res (len(res) must equal
// len(ops)) with per-op outcomes. Rejected ops (bad key/value length) get
// res[i].Err and are skipped. The contract is sequential, never atomic as a
// group: each op runs in its own critical section on its own shard, so op i
// observes the effects of ops 0..i-1 and other threads' sections may
// interleave between them. No section holds two shard mutexes. Each
// committed op's result carries its Durable ticket. A returned error is an
// engine failure; the ops before the failing one have committed and the
// ops after it did not run.
//
//gotle:hotpath per-batch mutation entry; covered by the serve-smoke AllocsPerRun gate
func (s *Store) MutateBatch(th *tm.Thread, ops []BatchOp, res []BatchResult, sc *BatchScratch) error {
	if len(ops) != len(res) {
		return errResLen
	}
	if sc.store == nil {
		sc.store = s
		//gotle:allow hotalloc bound once per scratch lifetime, reused by every section
		sc.bodyFn = func(tx tm.Tx) error { return s.batchBody(tx, sc) }
		// The one hand-off of committed records downstream, run post-commit.
		// One closure for the life of the scratch: tx.Defer on the hot path
		// must not allocate a fresh func per section.
		//gotle:allow hotalloc bound once per scratch lifetime, reused by every section
		sc.flushFn = func() {
			if len(sc.recs) > 0 {
				s.stream.Publish(sc.si, sc.recs)
			}
		}
	} else if sc.store != s {
		return errScratchMove
	}
	sc.numB = sc.numB[:0]

	var err error
	nsh := uint64(len(s.shards))
	for i := range ops {
		op := &ops[i]
		if len(op.Key) == 0 || len(op.Key) > MaxKeyLen {
			res[i] = BatchResult{Err: ErrBadKey}
			continue
		}
		if op.Verb.IsStore() && len(op.Val) > MaxValLen {
			res[i] = BatchResult{Err: ErrBadVal}
			continue
		}
		sc.op, sc.res = op, &res[i]
		sc.hash = fnv1a(op.Key)
		sc.si = int(sc.hash % nsh)
		sc.numBase = len(sc.numB)
		if err = s.shards[sc.si].mu.Do(th, sc.bodyFn); err != nil {
			break
		}
		res[i].Durable = s.wal.TicketFor(sc.si, sc.seq)
	}
	return err
}

// batchBody is the transaction body of one op, sc.op on shard sc.si: the
// one place a shard is mutated. res and the staged records are write-only
// across attempts: reset at the top, assigned wholesale, never read — a
// retry cannot observe a prior attempt.
//
//gotle:hotpath the mutating transaction body, entered via the scratch's bound closure
func (s *Store) batchBody(tx tm.Tx, sc *BatchScratch) error {
	op, sh, h := sc.op, &s.shards[sc.si], sc.hash
	sc.recs = sc.recs[:0]
	sc.numB = sc.numB[:sc.numBase]
	switch op.Verb {
	case BatchSet, BatchAdd, BatchReplace, BatchCAS:
		st := s.applyStore(tx, sh, h, op.Key, op.Val, op.Flags, op.Verb, op.Cas)
		*sc.res = BatchResult{Store: st}
		if st == Stored {
			s.stageWAL(tx, sh, sc, wal.OpSet, op.Flags, op.Key, op.Val)
		}
	case BatchDelete:
		rm := s.applyDelete(tx, sh, h, op.Key)
		*sc.res = BatchResult{Removed: rm}
		if rm {
			s.stageWAL(tx, sh, sc, wal.OpDelete, 0, op.Key, nil)
		}
	case BatchIncr, BatchDecr:
		nv, full, fl, st := s.applyIncr(tx, sh, h, op.Key, op.Delta, op.Verb == BatchDecr, sc.numB)
		var nb []byte
		if full != nil {
			// Re-adopt the arena: append inside applyIncr may have grown
			// it. Growth amortizes to zero once the arena reaches the
			// connection's steady batch shape.
			sc.numB = full
			nb = full[sc.numBase:]
		}
		*sc.res = BatchResult{Incr: st, NewVal: nv}
		if st == IncrStored {
			s.stageWAL(tx, sh, sc, wal.OpSet, fl, op.Key, nb)
		}
	default:
		*sc.res = BatchResult{Err: ErrBadKey}
	}
	// Unconditional: the engine enforces the allocator-safety wait for
	// freeing attempts regardless of this call (under DeferredReclaim the
	// committing thread parks the blocks until it has passed), and the
	// store never touches privatized item memory non-transactionally after
	// commit, so policy-level quiescence is never needed here.
	//gotle:allow txsafe allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
	tx.NoQuiesce()
	if s.stream != nil {
		sc.seq = tx.Load(sh.base + shWalSeq) // last read: the section's durability point
		tx.Defer(sc.flushFn)                 // publishes whatever the op above staged
	}
	return nil
}

// stageWAL is the commit-pipeline tap. It draws the shard's next commit
// sequence number inside tx — so the number rolls back with the attempt and
// the log order equals the shard's serialization order — and stages a redo
// record in the scratch; flushFn publishes it post-commit, the sanctioned
// channel for irrevocable effects, keeping the fsync wait out of the
// transaction. Key/val alias the op's buffers: the commit stream frames
// them during the deferred call, before MutateBatch returns.
func (s *Store) stageWAL(tx tm.Tx, sh *shard, sc *BatchScratch, op wal.Op, flags uint32, key, val []byte) {
	if s.stream == nil {
		return
	}
	seq := tx.Load(sh.base+shWalSeq) + 1
	tx.Store(sh.base+shWalSeq, seq)
	sc.recs = append(sc.recs, wal.Record{Seq: seq, Op: op, Flags: flags, Key: key, Val: val})
}
