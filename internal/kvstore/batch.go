package kvstore

import (
	"errors"
	"strconv"

	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Mutate is the one way into a shard: the server and the single-key
// mutators (SetItemD, DeleteD and their wrappers) call it, Recover calls
// it for each record it applies, and MutateBatch calls it per op. Each op
// is its own shard's critical section, exactly as under the lock baseline:
// an elided lock is invisible to the TM (the paper's lock erasure, Section
// IV.A), so one transaction spanning several shards would collide with
// every other section that touched any of them. Each section ends by reading its
// shard's WAL sequence word, and each op's result carries the ticket for
// the sequence it read: a reply waits for the ticket of every shard
// sequence its sections read (see PORTING.md).

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

// BatchOp is one mutation. Key and Val must remain stable until Mutate
// returns (the WAL frames the redo record, which aliases them, before
// that).
type BatchOp struct {
	Verb  BatchVerb
	Key   []byte
	Val   []byte // store verbs only
	Flags uint32 // store verbs only
	Cas   uint64 // BatchCAS only
	Delta uint64 // BatchIncr/BatchDecr only
	// seq, when not 0, is the shard sequence number of the logged record
	// the op replays (Recover, Apply): the op takes that number, a set's
	// CAS token included, and a delete takes it even where it removes
	// nothing, so a replayed shard's sequence is the log's. Unexported, so
	// that only a replay in this package can set a shard's sequence.
	seq uint64
}

// check reports why the store refuses op (a bad key or value length), nil
// when it takes it: Mutate refuses the op, MutateBatch skips it, Recover
// stops at it.
func (op *BatchOp) check() error {
	if len(op.Key) == 0 || len(op.Key) > MaxKeyLen {
		return ErrBadKey
	}
	if op.Verb.IsStore() && len(op.Val) > MaxValLen {
		return ErrBadVal
	}
	return nil
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

	errResLen = errors.New("kvstore: MutateBatch len(ops) != len(res)")
	errNested = errors.New("kvstore: Mutate inside a transaction with a WAL attached")
)

// BatchScratch is an empty placeholder kept for MutateBatch's callers that
// still pass one; the store keeps no per-connection state.
type BatchScratch struct{}

// Mutate runs one mutation as its shard's critical section and, with a
// WAL attached, appends its redo record once the section has returned.
// On an error (a bad key or value length included) the result reads as
// "nothing happened", with the zero ticket, and its Err is the returned
// error. A committed op's result carries its Durable ticket.
//
// A committed write reaches the WAL after its section returns, which is
// after its commit only at top level: with a WAL attached, Mutate refuses
// to run inside another transaction.
//
//gotle:hotpath per-op mutation entry; covered by the serve-smoke AllocsPerRun gate
func (s *Store) Mutate(th *tm.Thread, op BatchOp) (BatchResult, error) {
	err := op.check()
	if err == nil && s.wal != nil && th.InTx() {
		err = errNested
	}
	if err != nil {
		return refused(err), err
	}
	h := fnv1a(op.Key)
	si := int(h % uint64(len(s.shards)))
	sh := &s.shards[si]
	var (
		r      BatchResult
		seq    uint64
		logged wal.Op
		fl     uint32
	)
	if err := sh.mu.Do(th, func(tx tm.Tx) error {
		r, seq, logged, fl = s.batchBody(tx, sh, h, &op)
		return nil
	}); err != nil {
		return refused(err), err
	}
	if logged == 0 {
		r.Durable = s.wal.TicketFor(si, seq)
		return r, nil
	}
	rec := wal.Record{Op: logged, Seq: seq, Flags: fl, Key: op.Key}
	var digits [20]byte
	if op.Verb == BatchIncr || op.Verb == BatchDecr {
		rec.Val = strconv.AppendUint(digits[:0], r.NewVal, 10)
	} else if logged == wal.OpSet {
		rec.Val = op.Val
	}
	r.Durable = s.wal.Append(si, rec)
	return r, nil
}

// refused is the result of an op that did not run.
func refused(err error) BatchResult {
	return BatchResult{Store: NotStored, Incr: IncrNotFound, Err: err}
}

// MutateBatch applies ops in order through Mutate, filling res (len(res)
// must equal len(ops)) with per-op outcomes. Rejected ops (bad key/value
// length) get res[i].Err and are skipped. The contract is sequential, never
// atomic as a group: op i observes the effects of ops 0..i-1 and other
// threads' sections may interleave between them. A returned error is an
// engine failure; the ops before the failing one have committed and the ops
// after it did not run.
func (s *Store) MutateBatch(th *tm.Thread, ops []BatchOp, res []BatchResult, _ *BatchScratch) error {
	if len(ops) != len(res) {
		return errResLen
	}
	for i := range ops {
		if bad := ops[i].check(); bad != nil {
			res[i] = BatchResult{Err: bad}
			continue
		}
		r, err := s.Mutate(th, ops[i])
		if err != nil {
			return err
		}
		res[i] = r
	}
	return nil
}

// batchBody is the transaction body of op on shard sh: the one place a
// shard is mutated. It returns the op's result, the shard sequence it read
// last (the section's durability point) and, when it wrote with a WAL
// attached, its redo record's op and flags; the record's Seq is then that
// sequence, drawn inside tx (a set's CAS token is the same number), so the
// log order equals the shard's serialization order. Mutate builds the
// record after commit from op (an incr's digits from NewVal): a whole
// record returned out of every section cost replay about 5 %.
//
//gotle:hotpath the mutating transaction body
func (s *Store) batchBody(tx tm.Tx, sh *shard, h uint64, op *BatchOp) (res BatchResult, seq uint64, logged wal.Op, flags uint32) {
	if op.seq != 0 {
		tx.Store(sh.base+shSeq, op.seq-1)
	}
	switch op.Verb {
	case BatchSet, BatchAdd, BatchReplace, BatchCAS:
		res.Store = s.applyStore(tx, sh, h, op.Key, op.Val, op.Flags, op.Verb, op.Cas)
		if res.Store == Stored {
			logged, flags = wal.OpSet, op.Flags
		}
	case BatchDelete:
		res.Removed = s.applyDelete(tx, sh, h, op.Key)
		if !res.Removed && op.seq != 0 {
			tx.Store(sh.base+shSeq, op.seq) // replayed: it takes its number all the same
		}
		if res.Removed || op.seq != 0 {
			logged = wal.OpDelete
		}
	case BatchIncr, BatchDecr:
		res.NewVal, flags, res.Incr = s.applyIncr(tx, sh, h, op.Key, op.Delta, op.Verb == BatchDecr)
		if res.Incr == IncrStored {
			logged = wal.OpSet
		}
	default:
		res.Err = ErrBadKey
	}
	// Unconditional: the engine enforces the allocator-safety wait for
	// freeing attempts regardless of this call (under DeferredReclaim the
	// committing thread parks the blocks until it has passed), and the
	// store never touches privatized item memory non-transactionally after
	// commit, so policy-level quiescence is never needed here.
	//gotle:allow txsafe allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
	tx.NoQuiesce()
	if s.wal == nil {
		return res, 0, 0, 0
	}
	// Last, so that sets on the shard's other keys conflict with this
	// read for as short a time as possible.
	return res, tx.Load(sh.base + shSeq), logged, flags
}
