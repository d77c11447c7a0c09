package logrec

import "sync"

// Sink consumes each shard's committed records strictly in sequence order:
// wal.Log writes the frames to disk; repl.Source only counts them and
// later reads them back from the log once it has fsynced them.
type Sink interface {
	// Emit delivers n framed records for shard, sequence numbers
	// firstSeq..firstSeq+n-1, back to back in frames — the Stream's reused
	// scratch, valid only during the call. Emit runs under the shard's
	// Stream lock (the lock is what gives every sink the same order), so
	// it must not block on I/O or call back into the Stream.
	Emit(shard int, firstSeq uint64, n int, frames []byte)
}

// Stream is the one place that turns unordered post-commit publishes into
// per-shard contiguous runs. Sequence numbers are drawn inside the
// mutating transaction, but the post-commit calls that publish them
// interleave across threads, so a record can arrive before its
// predecessor, and consumers may only see each shard's contiguous prefix.
// The Stream parks early arrivals and releases them with their
// predecessors: no sink carries a reorder buffer of its own, and a record
// is framed once however many sinks are attached.
type Stream struct {
	sinks []Sink
	sh    []streamShard
}

type streamShard struct {
	mu sync.Mutex
	// next is the lowest sequence number not yet handed to the sinks.
	next uint64
	// scratch holds the run being released (capacity reused across calls).
	scratch []byte
	// parked maps an early arrival's seq to its owned, encoded frame.
	parked map[uint64][]byte
	// released counts records handed to the sinks, parkedN those of them
	// that waited in parked first.
	released, parkedN uint64
}

// NewStream builds a stream over len(last) shards; last[i] is shard i's
// last sequence number already downstream (the recovered log tail, or 0).
func NewStream(last []uint64) *Stream {
	s := &Stream{sh: make([]streamShard, len(last))}
	for i, l := range last {
		s.sh[i].next = l + 1
		s.sh[i].parked = make(map[uint64][]byte)
	}
	return s
}

// Attach adds a sink (before the first Publish); sinks run in attach order.
func (s *Stream) Attach(k Sink) { s.sinks = append(s.sinks, k) }

// Publish accepts one committed transaction's records for shard, in
// ascending Seq order. Key and Val are consumed before it returns (framed
// into the run, or into an owned parked frame). Everything this call makes
// contiguous — recs when they arrive in order, plus any parked successors
// — reaches each sink as one run, so a transaction's records cost each sink
// one call.
func (s *Stream) Publish(shard int, recs []Record) {
	sh := &s.sh[shard]
	sh.mu.Lock()
	first, run := sh.next, sh.scratch[:0]
	for _, r := range recs {
		r.Shard = uint16(shard)
		if r.Seq == sh.next {
			run = AppendRecord(run, r)
			sh.next++
		} else {
			sh.park(r)
		}
	}
	for f, ok := sh.parked[sh.next]; ok; f, ok = sh.parked[sh.next] {
		delete(sh.parked, sh.next)
		run = append(run, f...)
		sh.next++
	}
	if n := int(sh.next - first); n > 0 {
		for _, k := range s.sinks {
			//gotle:allow hotalloc a sink appends the run into a buffer it reuses (wal.Log; TestZeroAllocHotPath/*/wal measures 0) or only counts it (repl.Source with a WAL; TestSourceMemoryBounded measures 0); only a log-less Source, which no server runs, copies it
			k.Emit(shard, first, n, run)
		}
		sh.released += uint64(n)
	}
	sh.scratch = run[:0]
	sh.mu.Unlock()
}

// park holds r, whose predecessor drawn by another thread has not been
// published yet, in an owned frame until it has.
//
//gotle:coldpath only a record that overtook an unpublished predecessor on its shard parks
func (sh *streamShard) park(r Record) {
	sh.parked[r.Seq] = AppendRecord(nil, r)
	sh.parkedN++
}

// Counts reports how many records the stream has released to its sinks
// and how many of them arrived early and were parked first.
func (s *Stream) Counts() (released, parked uint64) {
	for i := range s.sh {
		sh := &s.sh[i]
		sh.mu.Lock()
		released += sh.released
		parked += sh.parkedN
		sh.mu.Unlock()
	}
	return released, parked
}
