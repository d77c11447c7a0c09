package kvstore

import (
	"bytes"
	"fmt"
	"math/bits"
	"time"

	"gotle/internal/memseg"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// replayBatch is how many records Recover applies per serial section.
const replayBatch = 64

// replayArenaBytes is the byte budget of Recover's key index: the keys it
// knows and the values of the records it holds back. Reaching it drains
// every shard, and every later record applies as read. A variable only so
// that tests can make it reach.
var replayArenaBytes = 4 << 20

// replayProbe is the fewest records a shard holds back before Recover
// checks that holding pays; the check waits for half the shard's capacity
// when that is more. A shard where fewer than one in eight of them was
// superseded by a later record of its key applies records as read from
// then on. That is exact too, and on a log of keys that do not repeat
// before the horizon it keeps Recover near the cost of applying every
// record.
const replayProbe = 256

// maxRecordBytes is the most a record's key and value take.
const maxRecordBytes = MaxKeyLen + MaxValLen

// Recover replays l into the store, which must not be serving yet and must
// have nothing attached (call AttachWAL after it), so nothing is re-logged.
// It leaves the store as applying every record in log order would: the same
// values, flags, CAS tokens, recency order and item count. It returns the
// records read.
//
// It applies fewer. A shard that starts empty holds nothing but what the
// log sets, so until a set could make it evict, each key's last record
// undoes what its earlier ones did. For each such shard Recover holds back
// each key's last set, in log order; a delete cancels its key's held-back
// set. It applies them when the shard reaches the point where it could
// evict, its horizon, or the log ends. The horizon is a set of a key with
// no held-back set while MaxItemsPerShard sets are held back. From the
// horizon on, and from the start in a shard that held items, a shard's
// records apply as they are read. Each applied record takes its own
// sequence number (BatchOp.seq), a set's CAS token included, and the end
// puts each shard's sequence at its last record's. Holding back costs
// a copy into the scratch, so a shard whose first held-back records (half
// its capacity, at least replayProbe) were hardly ever superseded applies
// its records as read from then on too.
//
// The scratch is mapped outside the Go heap (memseg.Map) and unmapped
// before Recover returns. It is sized once from the store's capacity, so
// it does not grow with the log: an index of twice the store's items and a
// replayArenaBytes arena for their keys and held-back values. When either
// fills, every shard drains and applies as read from then on, so no shard
// drains twice.
//
// Nothing runs beside a recovering store, so speculation buys it nothing:
// each run of replayBatch applied records is one irrevocable section
// (Engine.Synchronized) around one Mutate per record, whose Do flattens
// into it, so the mutations run with direct loads and stores, with no write
// buffer, commit or capacity abort. A section holds a batch, not the whole
// log, because a serial section frees the blocks it replaced only at its
// end, and the heap should reuse them as the replay goes. A record the
// store refuses ends the replay inside l.Recover, before the log is armed:
// every record ahead of it applies first, and the error names its shard
// and seq.
func (s *Store) Recover(th *tm.Thread, l *wal.Log) (int, error) {
	t0 := time.Now()
	if s.stream != nil {
		return 0, errNested
	}
	rp := newReplayer(s, th)
	defer rp.unmap()
	got, err := l.Recover(func(sh int, r wal.Record) error {
		if bad := opOf(&rp.op, &r); bad != nil {
			if err := rp.finish(); err != nil {
				return err
			}
			return fmt.Errorf("kvstore: replay shard %d seq %d: %w", sh, r.Seq, bad)
		}
		rp.op.seq = r.Seq
		return rp.record(&rp.op)
	})
	if err == nil {
		err = rp.finish()
	}
	s.recoverTime = time.Since(t0)
	return got, err
}

// RecoverTime reports how long Recover took, scan and apply; zero before it.
func (s *Store) RecoverTime() time.Duration { return s.recoverTime }

// replayEntry is one key the replay has held a set of: its bytes in the
// arena and, while held, the set's value, flags and token.
type replayEntry struct {
	hash       uint64
	seq        uint64 // the held-back set's sequence number, its token
	off        uint32 // arena offset of the key; its value follows
	vlen, vcap uint32
	flags      uint32
	prev, next uint32 // the shard's held-back sets in log order (index+1; 0 ends)
	klen       uint8
	held       bool
}

// replayShard is one shard's replay state.
type replayShard struct {
	head, tail uint32 // held-back sets, oldest first (index+1; 0 for none)
	bound      int    // the held-back sets: the items full replay holds
	last       uint64 // the sequence number of the last record read
	past       bool   // records apply as read
	// holds counts the sets held back, superseded those of them a later
	// record of their key replaced or cancelled.
	holds, superseded int
}

// replayer is Recover's state.
type replayer struct {
	s        *Store
	th       *tm.Thread
	sh       []replayShard
	ent      []replayEntry
	n        uint32   // entries in use
	tab      []uint32 // open-addressed index of ent (index+1; 0 empty)
	tabShift uint     // 64 - log2(len(tab))
	// arena holds each entry's key and held-back value; direct holds the
	// batch's records that apply as read. Both are mapped.
	arena, direct []byte
	used, dused   int
	batch         [replayBatch]BatchOp
	nb            int
	op            BatchOp // the record being read
	body          func(tm.Tx) error
	probe         int // held-back sets per shard before the check
}

func newReplayer(s *Store, th *tm.Thread) *replayer {
	eng := s.r.Engine()
	rp := &replayer{s: s, th: th, sh: make([]replayShard, len(s.shards))}
	for i := range rp.sh {
		rp.sh[i].past = eng.Load(s.shards[i].base+shCount) > 0
	}
	entries := 2 * len(s.shards) * s.cfg.MaxItemsPerShard
	rp.ent = memseg.Map[replayEntry](entries)
	rp.tab = memseg.Map[uint32](ceilPow2(2 * entries))
	rp.tabShift = uint(64 - bits.TrailingZeros(uint(len(rp.tab))))
	rp.arena = memseg.Map[byte](max(replayArenaBytes, maxRecordBytes))
	rp.direct = memseg.Map[byte](replayBatch * maxRecordBytes)
	rp.body = rp.apply
	rp.probe = max(replayProbe, s.cfg.MaxItemsPerShard/2)
	return rp
}

func (rp *replayer) unmap() {
	memseg.Unmap(rp.ent)
	memseg.Unmap(rp.tab)
	memseg.Unmap(rp.arena)
	memseg.Unmap(rp.direct)
}

// record takes one record the store accepts.
func (rp *replayer) record(op *BatchOp) error {
	h := fnv1a(op.Key)
	si := int(h % uint64(len(rp.sh)))
	sh := &rp.sh[si]
	set := op.Verb == BatchSet
	sh.last = op.seq
	if !sh.past && sh.holds == rp.probe && sh.superseded < rp.probe/8 {
		if err := rp.drainShard(si); err != nil {
			return err
		}
	}
	if !sh.past && set {
		need := len(op.Key) + int(roundWord(len(op.Val)))
		if int(rp.n) == len(rp.ent) || rp.used+need > len(rp.arena) {
			if err := rp.drainAll(); err != nil {
				return err
			}
		}
	}
	if sh.past {
		return rp.direct1(op)
	}
	i, slot := rp.find(h, op.Key)
	var e *replayEntry
	if i != 0 {
		e = &rp.ent[i-1]
	}
	if !set {
		// The shard holds no key but its held-back sets'.
		if e != nil && e.held {
			rp.unlink(si, i)
			sh.bound--
		}
		return nil
	}
	if e == nil || !e.held {
		if sh.bound == rp.s.cfg.MaxItemsPerShard {
			// The horizon: from here on this set could evict.
			if err := rp.drainShard(si); err != nil {
				return err
			}
			return rp.direct1(op)
		}
		sh.bound++
	}
	if e == nil {
		i, e = rp.add(slot, h, op.Key, roundWord(len(op.Val)))
	}
	if uint32(len(op.Val)) > e.vcap {
		// Move the key next to a value slot that fits.
		off := rp.used
		copy(rp.arena[off:], rp.arena[e.off:e.off+uint32(e.klen)])
		e.off, e.vcap = uint32(off), roundWord(len(op.Val))
		rp.used += int(e.klen) + int(e.vcap)
	}
	v := e.off + uint32(e.klen)
	copy(rp.arena[v:], op.Val)
	e.vlen, e.flags, e.seq = uint32(len(op.Val)), op.Flags, op.seq
	rp.hold(si, i)
	return nil
}

func roundWord(n int) uint32 { return uint32(n+7) &^ 7 }

// slot is where hash h starts its probe of the index.
func (rp *replayer) slot(h uint64) int {
	return int(h * 0x9E3779B97F4A7C15 >> rp.tabShift)
}

// find returns the entry (index+1) of key, whose hash is h, or 0 and the
// empty slot where the key's entry would go.
func (rp *replayer) find(h uint64, key []byte) (i uint32, slot int) {
	mask := len(rp.tab) - 1
	for j := rp.slot(h); ; j = (j + 1) & mask {
		i := rp.tab[j]
		if i == 0 {
			return 0, j
		}
		e := &rp.ent[i-1]
		if e.hash == h && bytes.Equal(rp.arena[e.off:e.off+uint32(e.klen)], key) {
			return i, j
		}
	}
}

// add makes an entry for key in the index's empty slot, with a value slot
// of vcap bytes and nothing held back.
func (rp *replayer) add(slot int, h uint64, key []byte, vcap uint32) (uint32, *replayEntry) {
	off := rp.used
	rp.used += copy(rp.arena[off:], key) + int(vcap)
	rp.n++
	e := &rp.ent[rp.n-1]
	*e = replayEntry{hash: h, off: uint32(off), vcap: vcap, klen: uint8(len(key))}
	rp.tab[slot] = rp.n
	return rp.n, e
}

// hold makes entry i's set held back, last in its shard's log order.
func (rp *replayer) hold(si int, i uint32) {
	e := &rp.ent[i-1]
	if e.held {
		rp.unlink(si, i)
	}
	e.held = true
	sh := &rp.sh[si]
	sh.holds++
	e.prev, e.next = sh.tail, 0
	if sh.tail != 0 {
		rp.ent[sh.tail-1].next = i
	} else {
		sh.head = i
	}
	sh.tail = i
}

// unlink drops entry i's held-back set, which a later record of its key
// supersedes.
func (rp *replayer) unlink(si int, i uint32) {
	e := &rp.ent[i-1]
	sh := &rp.sh[si]
	sh.superseded++
	if e.prev != 0 {
		rp.ent[e.prev-1].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != 0 {
		rp.ent[e.next-1].prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.held = false
}

// drainShard queues shard si's held-back sets for the store, oldest first,
// and makes its later records apply as read. The sets' bytes stay in the
// arena, which nothing writes over once their shard has drained.
func (rp *replayer) drainShard(si int) error {
	sh := &rp.sh[si]
	for i := sh.head; i != 0; {
		e := &rp.ent[i-1]
		v := e.off + uint32(e.klen)
		if err := rp.push(BatchSet, rp.arena[e.off:v], rp.arena[v:v+e.vlen], e.flags, e.seq); err != nil {
			return err
		}
		e.held = false
		i = e.next
	}
	sh.head, sh.tail, sh.past = 0, 0, true
	return nil
}

// drainAll drains every shard that still holds back.
func (rp *replayer) drainAll() error {
	for si := range rp.sh {
		if !rp.sh[si].past {
			if err := rp.drainShard(si); err != nil {
				return err
			}
		}
	}
	return nil
}

// direct1 queues a record that applies as read, copying its bytes out of
// the log's frame.
func (rp *replayer) direct1(op *BatchOp) error {
	k := rp.dused
	rp.dused += copy(rp.direct[k:], op.Key)
	v := rp.dused
	rp.dused += copy(rp.direct[v:], op.Val)
	return rp.push(op.Verb, rp.direct[k:v], rp.direct[v:rp.dused], op.Flags, op.seq)
}

// push queues one record for the store and applies the batch once full.
func (rp *replayer) push(verb BatchVerb, key, val []byte, flags uint32, seq uint64) error {
	rp.batch[rp.nb] = BatchOp{Verb: verb, Key: key, Val: val, Flags: flags, seq: seq}
	if rp.nb++; rp.nb == replayBatch {
		return rp.flush()
	}
	return nil
}

// flush applies the queued records in one serial section.
func (rp *replayer) flush() error {
	if rp.nb == 0 {
		return nil
	}
	err := rp.s.r.Engine().Synchronized(rp.th, rp.body)
	rp.nb, rp.dused = 0, 0
	if err != nil {
		return fmt.Errorf("kvstore: replay: %w", err)
	}
	return nil
}

// apply is the serial section's body.
func (rp *replayer) apply(tm.Tx) error {
	for i := range rp.batch[:rp.nb] {
		if _, err := rp.s.Mutate(rp.th, rp.batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// finish applies everything held back and leaves each shard's sequence
// where full replay of the records read leaves it: at its last record's.
func (rp *replayer) finish() error {
	if err := rp.drainAll(); err != nil {
		return err
	}
	if err := rp.flush(); err != nil {
		return err
	}
	for si, sh := range rp.sh {
		if sh.last != 0 {
			rp.s.r.Engine().Store(rp.s.shards[si].base+shSeq, sh.last)
		}
	}
	return nil
}
