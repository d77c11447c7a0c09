package kvstore

import (
	"encoding/binary"
	"sort"

	"gotle/internal/memseg"
	"gotle/internal/tm"
)

// dumpEntry is one shard entry as collected inside the dump transaction.
type dumpEntry struct {
	key   []byte
	val   []byte
	flags uint32
	cas   uint64
}

// DumpShard serializes one shard's entries into a canonical byte blob for
// convergence checking: entries sorted by key, each as
//
//	u32 keyLen | key | u32 flags | u64 cas | u32 valLen | val
//
// prefixed by a u32 entry count, all little-endian. The walk runs as ONE
// transaction on the shard's mutex, so the dump is a consistent snapshot —
// some prefix of the shard's serialization order.
//
// The blob deliberately EXCLUDES recency — the order of the eviction list
// the walk follows (store order, rotated by second chances) and the items'
// referenced bits: gets set those bits on the primary without generating
// replication records, so which items a set spares diverges across
// replicas by design. It INCLUDES CAS tokens: a set's token is its
// shard sequence number, the one its replicated record carries, and a
// follower's apply takes that number, so converged replicas must match
// token for token.
//
//gotle:coldpath convergence-check diagnostic verb; allocates freely by design
func (s *Store) DumpShard(th *tm.Thread, shardIdx int) ([]byte, error) {
	sh := &s.shards[shardIdx%len(s.shards)]
	var entries []dumpEntry
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		// Body-local accumulation, assigned once (the LRUKeys pattern): a
		// retried attempt must not keep the previous attempt's entries.
		var es []dumpEntry
		item := memseg.Addr(tx.Load(sh.base + shLRUHead))
		for item != memseg.Nil {
			meta := tx.Load(item + itMeta)
			keyLen := int(meta >> 32)
			keyWords := (keyLen + 7) / 8
			es = append(es, dumpEntry{
				key:   unpackBytes(tx, item+itData, keyLen),
				val:   unpackBytes(tx, item+itData+memseg.Addr(keyWords), int(meta&0xFFFFFFFF)),
				flags: uint32(tx.Load(item + itFlags)),
				cas:   tx.Load(item + itCas),
			})
			item = memseg.Addr(tx.Load(item + itNext))
		}
		entries = es
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].key) < string(entries[j].key)
	})
	size := 4
	for i := range entries {
		size += 4 + len(entries[i].key) + 4 + 8 + 4 + len(entries[i].val)
	}
	out := make([]byte, 0, size)
	var w [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:4], v)
		out = append(out, w[:4]...)
	}
	u32(uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		u32(uint32(len(e.key)))
		out = append(out, e.key...)
		u32(e.flags)
		binary.LittleEndian.PutUint64(w[:8], e.cas)
		out = append(out, w[:8]...)
		u32(uint32(len(e.val)))
		out = append(out, e.val...)
	}
	return out, nil
}
