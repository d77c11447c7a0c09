package kvstore

import (
	"errors"

	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Batch fusion: the serving path collects adjacent mutations from one
// connection's pipeline and runs them as a SINGLE critical section via
// tle.Runtime.DoAll — one transaction begin/commit, one quiescence, one
// WAL ticket per touched shard, instead of one of each per op. The fusion
// boundary is the protocol batch: ops that arrived together may fuse, ops
// from different reads never do (see PORTING.md).
//
// Semantics inside a fused batch are sequential: op i observes the
// effects of ops 0..i-1 on the same keys, exactly as if each had run in
// its own critical section back to back with no interleaving — which is
// the linearization the fused transaction commits atomically.

// BatchVerb selects one fused operation. The first four values mirror
// storeMode so conversion is a cast.
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

// BatchOp is one mutation in a fused batch. Key and Val must remain
// stable until MutateBatch returns AND, when a WAL is attached, until the
// tickets in BatchScratch.Tickets have been waited on or abandoned — the
// redo records alias them.
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

// BatchScratch carries the reusable state of one connection's fused
// batches. Each executor goroutine owns one; the zero value is ready. A
// scratch must stay with one Store.
type BatchScratch struct {
	// Tickets holds one durability handle per touched shard for the most
	// recent committed batch (empty when no WAL is attached or nothing
	// mutated). Wait on every entry before acking the batch's ops.
	Tickets []wal.Ticket

	hash    []uint64 // per op
	shardOf []int    // per op; -1 = rejected before the transaction
	pos     []int    // per op: index into touched
	touched []int    // distinct shard indices, ascending
	ms      []*tle.Mutex
	recs    [][]wal.Record // per touched shard, staged inside the tx
	store   *Store
	fuse    *tle.Fuse
	flushFn func() // one closure, reused across batches (tx.Defer target)

	// The in-flight batch, parked here so bodyFn (bound once) can reach
	// it: fresh closures over ops/res would cost an allocation per batch.
	curOps []BatchOp
	curRes []BatchResult
	bodyFn func(tx tm.Tx) error

	// numB is the digit arena for fused incr/decr results: applyIncr
	// appends each op's decimal bytes here so a batch of counters stages
	// WAL records without per-op allocations. Reset per attempt in
	// batchBody; consumed by flushFn before the next batch reuses it.
	numB []byte
}

// grow readies the per-op and per-shard slices for n ops over t touched
// shards (t known only after routing; pass len(sc.touched)).
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

// MutateBatch runs ops as one fused critical section spanning every shard
// the batch touches, filling res (len(res) must equal len(ops)) with
// per-op outcomes. Rejected ops (bad key/value length) get res[i].Err and
// are skipped; the rest run atomically. When a WAL is attached,
// sc.Tickets receives one group-commit ticket per touched shard.
//
// MutateBatch returns tle.ErrUnfusable when the touched shards cannot
// elide onto one TM mechanism (a lock-based policy, or the adaptive
// controller mid-transition); the caller falls back to per-op execution.
// Any other error is an engine failure.
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
		// One closure for the life of the scratch: tx.Defer on the hot
		// path must not allocate a fresh func per batch.
		//gotle:allow hotalloc bound once per scratch lifetime, reused by every batch
		sc.flushFn = func() {
			for j := range sc.recs {
				if len(sc.recs[j]) == 0 {
					continue
				}
				tk := s.publish(sc.touched[j], sc.recs[j])
				if s.wal != nil {
					sc.Tickets = append(sc.Tickets, tk)
				}
			}
		}
	} else if sc.store != s {
		return errScratchMove
	}

	// Route: validate, hash, and collect the distinct shards in ascending
	// index order — DoAll needs a stable mutex set, and a canonical order
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
	}
	sc.ms = sc.ms[:len(sc.touched)]
	sc.recs = sc.recs[:len(sc.touched)]
	for j, si := range sc.touched {
		sc.ms[j] = s.shards[si].mu
	}

	// The fused critical section. Every res[i] and sc.recs entry the body
	// touches is write-only across attempts: reset at the top, assigned
	// wholesale, never read — a retry cannot observe a prior attempt.
	sc.curOps, sc.curRes = ops, res
	sc.fuse.Ms = sc.ms
	//gotle:allow capest worst-case over unknown-length loops; bounded by MaxKeyLen/MaxValLen in practice
	return sc.fuse.Do(th, sc.bodyFn)
}

// batchBody is the fused transaction body over sc.curOps/sc.curRes.
//
//gotle:hotpath fused transaction body, entered via the scratch's bound closure
func (s *Store) batchBody(tx tm.Tx, sc *BatchScratch) error {
	ops, res := sc.curOps, sc.curRes
	for j := range sc.recs {
		sc.recs[j] = sc.recs[j][:0]
	}
	sc.numB = sc.numB[:0]
	for i := range ops {
		si := sc.shardOf[i]
		if si < 0 {
			continue
		}
		op := &ops[i]
		sh := &s.shards[si]
		switch op.Verb {
		case BatchSet, BatchAdd, BatchReplace, BatchCAS:
			st, _, _ := s.applyStore(tx, sh, sc.hash[i], op.Key, op.Val, op.Flags, storeMode(op.Verb), op.Cas)
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
			nv, full, fl, st, _ := s.applyIncr(tx, sh, sc.hash[i], op.Key, op.Delta, op.Verb == BatchDecr, sc.numB)
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
	// Unconditional: the engine forces (or defers, under DeferredReclaim)
	// the allocator-safety wait for freeing attempts regardless of this
	// call, and the store never touches privatized item memory
	// non-transactionally after commit, so policy-level quiescence is
	// never needed here.
	//gotle:allow noqpriv allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
	tx.NoQuiesce()
	if s.stream != nil {
		tx.Defer(sc.flushFn) // publishes whatever the ops above staged
	}
	return nil
}

// stageWAL draws the shard's next commit sequence inside tx and stages a
// redo record in the scratch; the batch's flushFn publishes every touched
// shard's run post-commit — one ticket per shard per batch. Key/val alias
// the op's buffers: the commit stream frames them during the deferred
// call, before the caller recycles the batch.
func (s *Store) stageWAL(tx tm.Tx, sh *shard, sc *BatchScratch, pos int, op wal.Op, flags uint32, key, val []byte) {
	if s.stream == nil {
		return
	}
	seq := tx.Load(sh.base+shWalSeq) + 1
	tx.Store(sh.base+shWalSeq, seq)
	sc.recs[pos] = append(sc.recs[pos], wal.Record{Seq: seq, Op: op, Flags: flags, Key: key, Val: val})
}
