// Package kvstore is a memcached-style in-memory cache built on the lock-
// elision layer: a sharded hash table with per-shard second-chance
// eviction, statistics counters, CAS tokens and the memcached storage
// verbs.
//
// The paper repeatedly leans on the authors' earlier transactional
// memcached port (Sections V and VI): critical sections there obeyed
// two-phase locking, atomic statistics counters had to be folded into
// transactions, and log output had to be deferred. This package recreates
// that workload shape on this repository's TM stack:
//
//   - each shard's operations are one critical section (per-shard elidable
//     mutex), with lookup, recency, statistics and eviction inside;
//   - a get writes no shared word, so two gets never conflict and both
//     TM mechanisms commit them on their read-only path. Recency is a
//     second-chance bit in the item's own flags word, stored only when a
//     hit finds it clear; the eviction list is spliced only by
//     transactions that write anyway (a set links at the front, and its
//     eviction loop relinks a referenced tail there with the bit cleared
//     instead of evicting it). Move-to-front on every hit would make
//     every get a writer of the shard's list head;
//   - the sets/deletes/evictions counters are per-shard words updated
//     inside the shard's own transaction — the memcached "mini-
//     transaction" treatment of its C++ atomics, which costs nothing
//     where the transaction writes the shard header anyway. They are
//     deliberately NOT behind a shared lock: the adaptive controller may
//     run neighbouring shards on different TM mechanisms (HTM vs STM),
//     which is sound only while no word is reachable from two
//     differently-policied critical sections. The hit/miss counters are
//     the exception: folded into the transaction they were the only
//     words a get wrote, so they are a stats.Striped outside the TM heap,
//     bumped after the critical section returns;
//   - eviction, deletion and replace privatize item memory, so the
//     quiescence machinery (and the Listing-2 NoQuiesce discipline) is
//     exercised by every miss-heavy workload;
//   - every stored item carries a CAS token (the shard sequence number of
//     the set that stored it, the number its redo record carries) and a
//     32-bit flags word, so the server layer can speak the full memcached
//     text protocol (gets/cas) without auxiliary maps.
//
// Keys and values are byte strings packed into heap words. All operations
// are 2PL-clean (verified by test against lockcheck) and therefore
// elidable under every policy.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"gotle/internal/logrec"
	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Item block layout (word offsets).
const (
	itMeta  = 0 // keyLen<<32 | valLen
	itChain = 1 // next item in bucket chain
	itPrev  = 2 // eviction list: towards the front
	itNext  = 3 // eviction list: towards the tail (next victim)
	itCas   = 4 // compare-and-swap token: the shard sequence number of the set that stored it (never 0)
	itFlags = 5 // low 32 bits: client-opaque memcached "flags"; bit 32: itReferenced
	itData  = 6 // key bytes, then value bytes, word-packed
)

// itReferenced is the second-chance bit in the itFlags word: set by the
// first hit since the item was stored or last spared, cleared when the
// eviction loop spares the item. Readers of the client flags truncate the
// word to 32 bits.
const itReferenced = 1 << 32

// maxSecondChances bounds how many referenced tail items one eviction may
// spare before it evicts the tail regardless: each spared item adds its
// header line to the evicting transaction's write set, which has to stay
// inside a small HTM write capacity.
const maxSecondChances = 4

// Shard block layout. The mutation counters live inside the shard block so
// each is guarded by exactly one mutex — a precondition for running shards
// on different TM mechanisms (see the package comment).
const (
	shCount   = 0
	shLRUHead = 1 // most recently stored or spared
	shLRUTail = 2 // next eviction candidate
	shSeq     = 3 // the shard sequence: one number per mutation, drawn inside its transaction
	shStats   = 4 // stWords counters
	shWords   = shStats + stWords
)

// Per-shard stats word indices (relative to sh.base+shStats): the counters
// of transactions that write the shard anyway. Gets are counted in
// Store.gets.
const (
	stSets = iota
	stDeletes
	stEvictions
	stWords
)

// Store.gets holds two counters per shard, at 2*shard + one of these. A
// thread bumps its own stripe, once per get, after the critical section has
// returned.
const (
	getHits = iota
	getMisses
)

// MaxKeyLen and MaxValLen bound entry sizes.
const (
	MaxKeyLen = 250 // memcached's limit
	MaxValLen = 8192
)

// Config parameterises a Store.
type Config struct {
	// Shards is rounded up to a power of two (default 8).
	Shards int
	// BucketsPerShard is rounded up to a power of two. The default follows
	// the capacity: MaxItemsPerShard rounded up to a power of two (so a
	// full shard's chains average at most one item), capped at
	// memseg.MaxAlloc because a shard's bucket array is one heap block of
	// one word per bucket.
	BucketsPerShard int
	// MaxItemsPerShard triggers eviction (default 1024).
	MaxItemsPerShard int
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 8
	}
	if c.MaxItemsPerShard < 1 {
		c.MaxItemsPerShard = 1024
	}
	if c.BucketsPerShard < 1 {
		c.BucketsPerShard = min(c.MaxItemsPerShard, memseg.MaxAlloc)
	}
	return c
}

// Store is the cache.
type Store struct {
	r      *tle.Runtime
	cfg    Config
	shards []shard
	gets   *stats.Striped // hit/miss counters, outside the TM heap
	// stream, once a sink is attached, carries every committed mutation
	// downstream in per-shard sequence order. Nil (the default) means no
	// durability, no replication, and no sequence numbers drawn.
	stream *logrec.Stream
	// wal issues the durability tickets for records sent down stream; a
	// nil log (no AttachWAL) issues zero, already-durable tickets.
	wal *wal.Log
	// recoverTime is how long Recover took, scan and apply (zero before).
	recoverTime time.Duration
}

type shard struct {
	mu      *tle.Mutex
	base    memseg.Addr // shWords header: counters, eviction-list ends, sequences
	buckets memseg.Addr // 1<<(64-shift) chain heads
	shift   uint
}

// bucket returns the chain head for a key hash. The hash is multiplied
// through before its top bits index the array: FNV-1a's own upper bits
// barely move between keys that differ in their last few bytes (a byte
// reaches bits 32-39 only by carry), which piles such keys into a handful
// of buckets; the low bits, which do mix, chose the shard.
func (sh *shard) bucket(h uint64) memseg.Addr {
	return sh.buckets + memseg.Addr(h*0x9E3779B97F4A7C15>>sh.shift)
}

// New creates a store on the runtime's engine.
func New(r *tle.Runtime, cfg Config) *Store {
	cfg = cfg.withDefaults()
	nsh := ceilPow2(cfg.Shards)
	nbk := ceilPow2(cfg.BucketsPerShard)
	cfg.Shards, cfg.BucketsPerShard = nsh, nbk
	s := &Store{
		r:      r,
		cfg:    cfg,
		shards: make([]shard, nsh),
		gets:   stats.NewStriped(2 * nsh),
	}
	for i := range s.shards {
		s.shards[i] = shard{
			mu:      r.NewMutex(fmt.Sprintf("kv-shard-%d", i)),
			base:    r.Engine().Alloc(shWords),
			buckets: r.Engine().Alloc(nbk),
			shift:   uint(64 - bits.TrailingZeros(uint(nbk))),
		}
	}
	return s
}

// ShardCount reports the (power-of-two rounded) number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardMutex returns the elidable mutex guarding shard i. The adaptive
// controller drives per-shard policy through these handles; each mutex
// guards only that shard's words, so neighbouring shards may run on
// different TM mechanisms.
func (s *Store) ShardMutex(i int) *tle.Mutex { return s.shards[i].mu }

// ShardMutexes returns all shard mutexes, index-aligned with shard ids.
func (s *Store) ShardMutexes() []*tle.Mutex {
	ms := make([]*tle.Mutex, len(s.shards))
	for i := range s.shards {
		ms[i] = s.shards[i].mu
	}
	return ms
}

// Apply replays one logged mutation as a transaction, beside readers: a
// follower's apply loop is this call per record. The mutation takes the
// record's sequence number (BatchOp.seq), so a follower's CAS tokens and
// its own log's numbering are the primary's. A delete's miss is not an
// error: a follower that diverged is caught by the converge harness's shard
// dumps.
func (s *Store) Apply(th *tm.Thread, rec logrec.Record) error {
	op := BatchOp{seq: rec.Seq}
	err := opOf(&op, &rec)
	if err == nil {
		_, err = s.Mutate(th, op)
	}
	return err
}

// opOf decodes a logged mutation into op (all but Cas and Delta), the op
// that replays it, or says why the store refuses it.
func opOf(op *BatchOp, rec *logrec.Record) error {
	op.Verb, op.Key, op.Val, op.Flags = BatchSet, rec.Key, rec.Val, rec.Flags
	switch rec.Op {
	case logrec.OpSet:
	case logrec.OpDelete:
		op.Verb = BatchDelete
	default:
		return fmt.Errorf("kvstore: unknown log op %v", rec.Op)
	}
	return op.check()
}

// AttachWAL arms redo logging: every committed mutation from here on
// reaches l as a wal.Record in the shard's serialization order. Call it
// after any recovery replay (Recover, with nothing attached), before
// AttachTap and before serving traffic. The per-shard sequence words are
// seeded from the log's recovered tail, so fresh records continue it.
func (s *Store) AttachWAL(l *wal.Log) error {
	if l.Shards() != len(s.shards) {
		return fmt.Errorf("kvstore: WAL has %d shards, store has %d (records are routed by key hash, so the counts must match)", l.Shards(), len(s.shards))
	}
	for i := range s.shards {
		s.r.Engine().Store(s.shards[i].base+shSeq, l.LastSeq(i))
	}
	s.wal = l
	s.AttachTap(l)
	return nil
}

// AttachTap adds a sink to the commit stream: every committed mutation
// from here on reaches t in per-shard sequence order (repl.Source tees it
// to followers). Call it during startup — after any recovery replay and
// AttachWAL, before serving traffic. The stream starts at the shards'
// current sequence words (AttachWAL seeds them; zero on a WAL-less
// primary), and the tap's own base cursor must match (repl.NewSource
// takes the same recovered tail). A tap with an AttachLog method is handed
// the store's WAL, if there is one (repl.Source then ships only what it
// has fsynced).
func (s *Store) AttachTap(t logrec.Sink) {
	if lt, ok := t.(interface{ AttachLog(*wal.Log) }); ok && s.wal != nil {
		lt.AttachLog(s.wal)
	}
	if s.stream == nil {
		last := make([]uint64, len(s.shards))
		for i := range last {
			last[i] = s.r.Engine().Load(s.shards[i].base + shSeq)
		}
		// Attach-before-serving contract: no goroutine runs transactions
		// against the store yet, so this raw store cannot race the
		// transactional s.stream readers on the commit path.
		s.stream = logrec.NewStream(last)
	}
	s.stream.Attach(t)
}

// CommitStream returns the store's commit stream (for its counters), nil
// when no sink is attached.
func (s *Store) CommitStream() *logrec.Stream { return s.stream }

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n *= 2
	}
	return n
}

// FNV-1a, 64-bit.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a hashes a key.
func fnv1a(key []byte) uint64 {
	h := fnvOffset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// ShardFor reports which shard serves key (server stats attribution).
func (s *Store) ShardFor(key []byte) int {
	return int(fnv1a(key) % uint64(len(s.shards)))
}

// wordsFor returns the item block size for the given key/value lengths.
func wordsFor(keyLen, valLen int) int {
	return itData + (keyLen+7)/8 + (valLen+7)/8
}

// rangeChunk is the staging size (in words) for bulk byte transfers: large
// enough to amortize a LoadRange/StoreRange call over many stripes, small
// enough that the scratch buffer stays cache-resident.
const rangeChunk = 64

// packBytes writes b into consecutive words starting at a. Bytes are
// staged through the transaction's range buffer in rangeChunk-word slabs
// and stored with one StoreRange per slab, so the TM acquires each
// covering stripe once instead of once per word.
func packBytes(tx tm.Tx, a memseg.Addr, b []byte) {
	buf := tx.RangeBuf(rangeChunk)
	for len(b) > 0 {
		nw := (len(b) + 7) / 8
		if nw > rangeChunk {
			nw = rangeChunk
		}
		take := nw * 8
		if take > len(b) {
			take = len(b)
		}
		full := take &^ 7
		for i := 0; i < full; i += 8 {
			buf[i/8] = binary.LittleEndian.Uint64(b[i:])
		}
		if full < take {
			var w uint64
			for j := 0; full+j < take; j++ {
				w |= uint64(b[full+j]) << (8 * j)
			}
			buf[full/8] = w
		}
		tx.StoreRange(a, buf[:nw])
		a += memseg.Addr(nw)
		b = b[take:]
	}
}

// unpackBytes reads n bytes from consecutive words starting at a.
func unpackBytes(tx tm.Tx, a memseg.Addr, n int) []byte {
	return unpackAppend(tx, a, n, nil)
}

// unpackAppend appends n bytes read from consecutive words starting at a
// to dst, growing it as needed. Reusing dst across calls keeps the hot
// read path allocation-free once the buffer has warmed up.
func unpackAppend(tx tm.Tx, a memseg.Addr, n int, dst []byte) []byte {
	base := len(dst)
	if cap(dst) < base+n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	out := dst[base:]
	buf := tx.RangeBuf(rangeChunk)
	for len(out) > 0 {
		nw := (len(out) + 7) / 8
		if nw > rangeChunk {
			nw = rangeChunk
		}
		tx.LoadRange(a, buf[:nw])
		take := nw * 8
		if take > len(out) {
			take = len(out)
		}
		full := take &^ 7
		for i := 0; i < full; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], buf[i/8])
		}
		for i := full; i < take; i++ {
			out[i] = byte(buf[i/8] >> (8 * (i % 8)))
		}
		a += memseg.Addr(nw)
		out = out[take:]
	}
	return dst
}

// keyMatches compares the stored key at item against key — no unpacked
// copy, no allocation. The length check in the meta word screens most
// mismatches; survivors load the whole packed key with one LoadRange
// (MaxKeyLen is 32 words, so one call and one stripe entry per 1<<shift
// words) and compare word-wise. packBytes zero-pads the final word, so
// padding the probe key the same way makes whole-word equality exact.
func keyMatches(tx tm.Tx, item memseg.Addr, key []byte) bool {
	meta := tx.Load(item + itMeta)
	if int(meta>>32) != len(key) {
		return false
	}
	nw := (len(key) + 7) / 8
	buf := tx.RangeBuf(nw)
	tx.LoadRange(item+itData, buf)
	full := len(key) &^ 7
	for i := 0; i < full; i += 8 {
		if buf[i/8] != binary.LittleEndian.Uint64(key[i:]) {
			return false
		}
	}
	if full < len(key) {
		var w uint64
		for j := 0; full+j < len(key); j++ {
			w |= uint64(key[full+j]) << (8 * j)
		}
		if buf[full/8] != w {
			return false
		}
	}
	return true
}

// findInChain walks a bucket chain; linkAt is the word holding the pointer
// to item (for unlinking); item is Nil when absent.
func (s *Store) findInChain(tx tm.Tx, sh *shard, bucket memseg.Addr, key []byte) (linkAt, item memseg.Addr) {
	linkAt = bucket
	item = memseg.Addr(tx.Load(linkAt))
	for item != memseg.Nil {
		if keyMatches(tx, item, key) {
			return linkAt, item
		}
		linkAt = item + itChain
		item = memseg.Addr(tx.Load(linkAt))
	}
	return linkAt, memseg.Nil
}

// --- eviction list maintenance (intrusive doubly-linked; head = most
// recently stored or spared, tail = next eviction candidate) ---

func (s *Store) lruUnlink(tx tm.Tx, sh *shard, item memseg.Addr) {
	prev := memseg.Addr(tx.Load(item + itPrev))
	next := memseg.Addr(tx.Load(item + itNext))
	if prev == memseg.Nil {
		tx.Store(sh.base+shLRUHead, uint64(next))
	} else {
		tx.Store(prev+itNext, uint64(next))
	}
	if next == memseg.Nil {
		tx.Store(sh.base+shLRUTail, uint64(prev))
	} else {
		tx.Store(next+itPrev, uint64(prev))
	}
}

func (s *Store) lruPushFront(tx tm.Tx, sh *shard, item memseg.Addr) {
	head := memseg.Addr(tx.Load(sh.base + shLRUHead))
	tx.Store(item+itPrev, uint64(memseg.Nil))
	tx.Store(item+itNext, uint64(head))
	if head != memseg.Nil {
		tx.Store(head+itPrev, uint64(item))
	} else {
		tx.Store(sh.base+shLRUTail, uint64(item))
	}
	tx.Store(sh.base+shLRUHead, uint64(item))
}

// bump adds delta to one per-shard counter inside the caller's transaction.
func bump(tx tm.Tx, sh *shard, idx int, delta uint64) {
	a := sh.base + shStats + memseg.Addr(idx)
	tx.Store(a, tx.Load(a)+delta)
}

// nextSeq advances the shard's sequence and returns the new number, a
// set's CAS token. Numbers start at 1, so 0 never names a stored item.
func nextSeq(tx tm.Tx, sh *shard) uint64 {
	c := tx.Load(sh.base+shSeq) + 1
	tx.Store(sh.base+shSeq, c)
	return c
}

// Item is one cache entry as returned by GetItem. Durable, on a hit or a
// miss, is the ticket for the shard sequence the get's section read: it
// covers every write the get observed. Zero with no WAL attached.
type Item struct {
	Value   []byte
	Flags   uint32
	CAS     uint64
	Durable wal.Ticket
}

// Get returns the value for key. A hit marks the item referenced, which
// earns it a second chance when it next reaches the eviction list's tail.
func (s *Store) Get(th *tm.Thread, key []byte) ([]byte, bool, error) {
	it, ok, err := s.GetItem(th, key)
	return it.Value, ok, err
}

// GetItem returns the full entry (value, flags, CAS token) for key, marking
// it referenced like Get.
func (s *Store) GetItem(th *tm.Thread, key []byte) (Item, bool, error) {
	_, it, ok, err := s.GetItemAppend(th, key, nil)
	return it, ok, err
}

// GetItemAppend is GetItem with caller-owned value storage: on a hit the
// value bytes are appended to dst and the returned Item's Value aliases
// that appended region. Reusing dst across calls makes the read path
// allocation-free once the buffer has warmed up. The (possibly grown)
// buffer is always returned, truncated back to its original length on a
// miss or error.
//
//gotle:hotpath per-get read path appending into the caller's reused buffer
func (s *Store) GetItemAppend(th *tm.Thread, key, dst []byte) ([]byte, Item, bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return dst, Item{}, false, ErrBadKey
	}
	h := fnv1a(key)
	si := int(h % uint64(len(s.shards)))
	sh := &s.shards[si]
	bucket := sh.bucket(h)
	base := len(dst)
	var it Item
	var seq uint64
	found := false
	out := dst
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		// A get never privatizes: safe to skip quiescence (Listing 2).
		tx.NoQuiesce()
		// Rewind the append cursor: a retried attempt must not keep the
		// previous attempt's bytes.
		out = out[:base] //gotle:allow txpure the only cross-attempt read is this rewind to the pre-call length; the bytes beyond base are write-only per attempt
		_, item := s.findInChain(tx, sh, bucket, key)
		found = item != memseg.Nil
		if found {
			meta := tx.Load(item + itMeta)
			keyWords := (int(meta>>32) + 7) / 8
			out = unpackAppend(tx, item+itData+memseg.Addr(keyWords), int(meta&0xFFFFFFFF), out) //gotle:allow txpure append-only past base, rewound above; a committed attempt's bytes are the last attempt's
			fl := tx.Load(item + itFlags)
			if fl&itReferenced == 0 {
				// The only store a get ever makes, once per item per trip
				// down the eviction list: every later hit is a read-only
				// attempt.
				tx.Store(item+itFlags, fl|itReferenced)
			}
			it.Flags = uint32(fl)          //gotle:allow txpure write-once out-param, read only after Do returns
			it.CAS = tx.Load(item + itCas) //gotle:allow txpure write-once out-param, read only after Do returns
		}
		if s.stream != nil {
			// Last, so that sets on the shard's other keys conflict with
			// this read for as short a time as possible.
			seq = tx.Load(sh.base + shSeq)
		}
		return nil
	})
	if err != nil {
		return out[:base], Item{}, false, err
	}
	// Counted here, not in the body: the body re-executes on abort, and a
	// counter in the TM heap would make every get a writer.
	if !found {
		s.gets.Add(th.ID(), 2*si+getMisses, 1)
		return out[:base], Item{Durable: s.wal.TicketFor(si, seq)}, false, nil
	}
	s.gets.Add(th.ID(), 2*si+getHits, 1)
	it.Value = out[base:]
	it.Durable = s.wal.TicketFor(si, seq)
	return out, it, true, nil
}

// StoreStatus is the outcome of a conditional store (memcached semantics).
type StoreStatus int

const (
	// Stored: the value was written.
	Stored StoreStatus = iota
	// NotStored: add found an existing entry, or replace found none.
	NotStored
	// CASExists: the entry's CAS token no longer matches (modified since
	// the client's gets).
	CASExists
	// CASNotFound: cas addressed a key that is no longer present.
	CASNotFound
)

func (st StoreStatus) String() string {
	switch st {
	case Stored:
		return "STORED"
	case NotStored:
		return "NOT_STORED"
	case CASExists:
		return "EXISTS"
	case CASNotFound:
		return "NOT_FOUND"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// Set inserts or replaces key's value, evicting from the tail of the
// shard's list (sparing referenced items, see makeRoom) to stay within the
// shard capacity.
func (s *Store) Set(th *tm.Thread, key, val []byte) error {
	return s.SetItem(th, key, val, 0)
}

// SetItem is Set with client flags.
func (s *Store) SetItem(th *tm.Thread, key, val []byte, flags uint32) error {
	_, err := s.SetItemD(th, key, val, flags)
	return err
}

// SetItemD is SetItem returning a durability ticket: Wait on it before
// acking the client. With no WAL attached the ticket is a no-op.
func (s *Store) SetItemD(th *tm.Thread, key, val []byte, flags uint32) (wal.Ticket, error) {
	res, err := s.Mutate(th, BatchOp{Verb: BatchSet, Key: key, Val: val, Flags: flags})
	return res.Durable, err
}

// applyStore is the conditional store behind the store verbs (BatchSet,
// BatchAdd, BatchReplace, BatchCAS): find, check the verb's precondition,
// unlink and free any old entry, evict down to capacity, insert the new
// one. It touches only sh's words. WAL staging and the NoQuiesce decision
// stay with batchBody, which sees the whole transaction.
func (s *Store) applyStore(tx tm.Tx, sh *shard, h uint64, key, val []byte, flags uint32, verb BatchVerb, wantCas uint64) StoreStatus {
	bucket := sh.bucket(h)
	linkAt, old := s.findInChain(tx, sh, bucket, key)
	switch verb {
	case BatchAdd:
		if old != memseg.Nil {
			return NotStored
		}
	case BatchReplace:
		if old == memseg.Nil {
			return NotStored
		}
	case BatchCAS:
		if old == memseg.Nil {
			return CASNotFound
		}
		if tx.Load(old+itCas) != wantCas {
			return CASExists
		}
	}
	count := tx.Load(sh.base + shCount)
	if old != memseg.Nil {
		// Replace: unlink and free the old item.
		tx.Store(linkAt, tx.Load(old+itChain))
		s.lruUnlink(tx, sh, old)
		count--
		tx.Free(old)
	}
	evicted := s.makeRoom(tx, sh, count)
	tx.Store(sh.base+shCount, count-evicted+1)
	item := tx.Alloc(wordsFor(len(key), len(val)))
	tx.Store(item+itMeta, uint64(len(key))<<32|uint64(len(val)))
	tx.Store(item+itCas, nextSeq(tx, sh))
	tx.Store(item+itFlags, uint64(flags)) // unreferenced
	packBytes(tx, item+itData, key)
	packBytes(tx, item+itData+memseg.Addr((len(key)+7)/8), val)
	// Link into the bucket and the list's front.
	tx.Store(item+itChain, tx.Load(bucket))
	tx.Store(bucket, uint64(item))
	s.lruPushFront(tx, sh, item)
	bump(tx, sh, stSets, 1)
	if evicted > 0 {
		bump(tx, sh, stEvictions, evicted)
	}
	// Evictions are deliberately NOT logged: they are a cache-policy
	// decision, not an acked client mutation, and replay re-applies
	// the same capacity bound anyway.
	return Stored
}

// makeRoom evicts from the tail until a shard holding count items can take
// one more within MaxItemsPerShard, and returns how many items it evicted
// (the caller owns the count word). This is where recency is acted on,
// inside a transaction that writes the list anyway: a referenced tail is
// not evicted but relinked at the front with its bit cleared — its second
// chance — at most maxSecondChances times per eviction, after which the
// tail goes whatever its bit says.
//
//gotle:hotpath runs inside every set
func (s *Store) makeRoom(tx tm.Tx, sh *shard, count uint64) (evicted uint64) {
	for ; count >= uint64(s.cfg.MaxItemsPerShard); count-- {
		victim := memseg.Addr(tx.Load(sh.base + shLRUTail))
		for spared := 0; victim != memseg.Nil && spared < maxSecondChances; spared++ {
			fl := tx.Load(victim + itFlags)
			if fl&itReferenced == 0 {
				break
			}
			tx.Store(victim+itFlags, fl&^itReferenced)
			s.lruUnlink(tx, sh, victim)
			s.lruPushFront(tx, sh, victim)
			victim = memseg.Addr(tx.Load(sh.base + shLRUTail))
		}
		if victim == memseg.Nil {
			break
		}
		s.evict(tx, sh, victim)
		evicted++
	}
	return evicted
}

// IncrStatus is the outcome of a BatchIncr or BatchDecr.
type IncrStatus int

const (
	// IncrStored: the counter was updated.
	IncrStored IncrStatus = iota
	// IncrNotFound: the key is absent (memcached does not auto-create).
	IncrNotFound
	// IncrNaN: the stored value is not an unsigned decimal integer.
	IncrNaN
)

// applyIncr adds (or, with decr, subtracts) delta from the decimal
// counter stored at key, within the shard's critical section: the
// read-parse-format-write cycle is atomic, which is exactly the kind of
// compound operation lock elision must keep indivisible. Decrement floors
// at zero, increment wraps at 2^64, matching memcached. Mutate logs a
// logical OpSet of the post-arithmetic decimal bytes (flags preserved):
// replay must not re-run the arithmetic, because the pre-state it read may
// itself be a replayed value. It returns the new counter value, the
// item's flags and the status. The current value is read, and the new one
// formatted, in stack buffers (a decimal uint64 never exceeds 20 digits),
// so it allocates nothing.
func (s *Store) applyIncr(tx tm.Tx, sh *shard, h uint64, key []byte, delta uint64, decr bool) (newVal uint64, flags uint32, status IncrStatus) {
	bucket := sh.bucket(h)
	linkAt, item := s.findInChain(tx, sh, bucket, key)
	if item == memseg.Nil {
		return 0, 0, IncrNotFound
	}
	meta := tx.Load(item + itMeta)
	keyWords := (int(meta>>32) + 7) / 8
	valLen := int(meta & 0xFFFFFFFF)
	if valLen > 20 {
		return 0, 0, IncrNaN // a decimal uint64 never exceeds 20 digits
	}
	var curB [20]byte
	cur, ok := parseDecimal(unpackAppend(tx, item+itData+memseg.Addr(keyWords), valLen, curB[:0]))
	if !ok {
		return 0, 0, IncrNaN
	}
	var next uint64
	if decr {
		if delta > cur {
			next = 0
		} else {
			next = cur - delta
		}
	} else {
		next = cur + delta // wraps at 2^64, like memcached
	}
	var nextB [20]byte
	digits := strconv.AppendUint(nextB[:0], next, 10)
	fl := tx.Load(item + itFlags)
	if len(digits) == valLen {
		// Same digit count: overwrite the value words in place. The
		// value region starts on a word boundary, so packBytes'
		// zero-padding never clobbers key bytes.
		packBytes(tx, item+itData+memseg.Addr(keyWords), digits)
		tx.Store(item+itCas, nextSeq(tx, sh))
		return next, uint32(fl), IncrStored
	}
	// Digit count changed: reallocate the item (same key, new value).
	tx.Store(linkAt, tx.Load(item+itChain))
	s.lruUnlink(tx, sh, item)
	tx.Free(item)
	fresh := tx.Alloc(wordsFor(len(key), len(digits)))
	tx.Store(fresh+itMeta, uint64(len(key))<<32|uint64(len(digits)))
	tx.Store(fresh+itCas, nextSeq(tx, sh))
	tx.Store(fresh+itFlags, fl&^itReferenced) // a rewritten item starts unreferenced, like any stored one
	packBytes(tx, fresh+itData, key)
	packBytes(tx, fresh+itData+memseg.Addr(keyWords), digits)
	tx.Store(fresh+itChain, tx.Load(bucket))
	tx.Store(bucket, uint64(fresh))
	s.lruPushFront(tx, sh, fresh)
	return next, uint32(fl), IncrStored
}

// parseDecimal parses an unsigned decimal byte string strictly (no sign,
// no spaces), as memcached requires for incr/decr values.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false // overflows uint64
		}
		v = v*10 + d
	}
	return v, true
}

// packedKeyHash is fnv1a over the n key bytes packed at a, read through one
// LoadRange into the transaction's range buffer (a key is at most 32
// words) instead of an unpacked copy.
func packedKeyHash(tx tm.Tx, a memseg.Addr, n int) uint64 {
	buf := tx.RangeBuf((n + 7) / 8)
	tx.LoadRange(a, buf)
	h := fnvOffset
	for i := 0; i < n; i++ {
		h ^= buf[i/8] >> (8 * (i % 8)) & 0xFF
		h *= fnvPrime
	}
	return h
}

// evict removes victim from its bucket chain and the eviction list, freeing it.
// The victim is known by address, so its chain is walked comparing
// addresses, not keys.
//
//gotle:hotpath runs inside most sets once a shard is full
func (s *Store) evict(tx tm.Tx, sh *shard, victim memseg.Addr) {
	meta := tx.Load(victim + itMeta)
	linkAt := sh.bucket(packedKeyHash(tx, victim+itData, int(meta>>32)))
	for item := memseg.Addr(tx.Load(linkAt)); item != memseg.Nil; item = memseg.Addr(tx.Load(linkAt)) {
		if item == victim {
			tx.Store(linkAt, tx.Load(victim+itChain))
			break
		}
		linkAt = item + itChain
	}
	s.lruUnlink(tx, sh, victim)
	tx.Free(victim)
}

// Delete removes key; it reports whether the key was present.
func (s *Store) Delete(th *tm.Thread, key []byte) (bool, error) {
	removed, _, err := s.DeleteD(th, key)
	return removed, err
}

// DeleteD is Delete with a durability ticket.
func (s *Store) DeleteD(th *tm.Thread, key []byte) (bool, wal.Ticket, error) {
	res, err := s.Mutate(th, BatchOp{Verb: BatchDelete, Key: key})
	return res.Removed, res.Durable, err
}

// applyDelete reports whether an item was unlinked and freed (false = miss,
// nothing privatized).
func (s *Store) applyDelete(tx tm.Tx, sh *shard, h uint64, key []byte) bool {
	bucket := sh.bucket(h)
	linkAt, item := s.findInChain(tx, sh, bucket, key)
	if item == memseg.Nil {
		return false
	}
	tx.Store(linkAt, tx.Load(item+itChain))
	s.lruUnlink(tx, sh, item)
	tx.Store(sh.base+shCount, tx.Load(sh.base+shCount)-1)
	tx.Free(item)
	nextSeq(tx, sh)
	bump(tx, sh, stDeletes, 1)
	return true
}

// Len reports the total item count across shards.
func (s *Store) Len(th *tm.Thread) (int, error) {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		// The shard count lands in a write-only local: `total +=` inside
		// the body would re-add the previous attempt's value when the
		// transaction retries.
		var count int
		err := sh.mu.Do(th, func(tx tm.Tx) error {
			tx.NoQuiesce()
			count = int(tx.Load(sh.base + shCount))
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += count
	}
	return total, nil
}

// Stats reports the store-wide counters.
type Stats struct {
	Gets, Hits, Sets, Deletes, Evictions uint64
}

// Stats sums the per-shard counters. Each shard is read in its own
// critical section; the result is a consistent snapshot per shard, not
// across shards (memcached's stats are equally loose).
func (s *Store) Stats(th *tm.Thread) (Stats, error) {
	var out Stats
	for i := range s.shards {
		st, err := s.ShardStats(th, i)
		if err != nil {
			return Stats{}, err
		}
		out.Gets += st.Gets
		out.Hits += st.Hits
		out.Sets += st.Sets
		out.Deletes += st.Deletes
		out.Evictions += st.Evictions
	}
	return out, nil
}

// ShardStats reads one shard's counters (the server's per-shard stats):
// the mutation counters in one critical section, the get counters summed
// over their stripes.
func (s *Store) ShardStats(th *tm.Thread, shardIdx int) (Stats, error) {
	shardIdx %= len(s.shards)
	sh := &s.shards[shardIdx]
	// Counters land in a write-only local array: accumulating into the
	// result inside the body would double-count across retries.
	var snap [stWords]uint64
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		var v [stWords]uint64
		for j := 0; j < stWords; j++ {
			v[j] = tx.Load(sh.base + shStats + memseg.Addr(j))
		}
		snap = v
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	hits := s.gets.Sum(2*shardIdx + getHits)
	return Stats{
		Gets:      hits + s.gets.Sum(2*shardIdx+getMisses),
		Hits:      hits,
		Sets:      snap[stSets],
		Deletes:   snap[stDeletes],
		Evictions: snap[stEvictions],
	}, nil
}

// LRUKeys returns a shard's keys from the front of its eviction list to the
// tail (tests): store order, rotated by second chances — a referenced item
// that reached the tail while a set needed room is back at the front.
func (s *Store) LRUKeys(th *tm.Thread, shardIdx int) ([]string, error) {
	sh := &s.shards[shardIdx%len(s.shards)]
	var keys []string
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		// Accumulate into a body-local slice and assign the captured
		// variable once: appending to `keys` directly would leave the
		// previous attempt's entries in place across a retry.
		var ks []string
		item := memseg.Addr(tx.Load(sh.base + shLRUHead))
		for item != memseg.Nil {
			meta := tx.Load(item + itMeta)
			ks = append(ks, string(unpackBytes(tx, item+itData, int(meta>>32))))
			item = memseg.Addr(tx.Load(item + itNext))
		}
		keys = ks
		return nil
	})
	return keys, err
}
