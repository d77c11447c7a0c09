// Package wal is the durability layer: a redo write-ahead log that each
// committed mutation appends its record to. Every shard keeps its own sequence space, but
// all shards append into ONE shared file series with one group-commit
// fsync stream — an fsync is the disk's grace period, and like the TM's
// shared grace, it amortizes only if everyone shares it. (The first cut of
// this package ran one file and one syncer per shard; each shard then saw
// 1/8th of the mutation rate, and no fsync window could batch records
// without adding milliseconds of ack latency.)
//
// Three properties make the log trustworthy:
//
//   - Commit order. Every mutating transaction draws a per-shard sequence
//     number inside the transaction itself, so the log order is exactly the
//     shard's serialization order — durability rides the same optimistic
//     commit order the TM establishes, rather than a second synchronization
//     layer bolted on outside it. Records may be *appended* out of order
//     (post-commit appends interleave across threads): Append parks a
//     record that arrives ahead of its predecessor and writes it once the
//     gap fills, so the file holds each shard's records in sequence order.
//
//   - Group commit. One background syncer batches every record appended
//     since the previous fsync — across all shards — into a single
//     write+fsync: the PR-2 shared-grace idea applied at the disk layer.
//     Append returns a Ticket; Ticket.Wait blocks until the record's
//     sequence number is covered by an fsync. A response acked to a client
//     after Wait is therefore durable.
//
//   - Torn-tail discipline. Records are length-prefixed and CRC-framed.
//     Recovery replays the segments in file order; an incomplete or
//     corrupt frame cleanly ends its segment and a sequence gap ends the
//     replay: a crash mid-write loses only the un-acked suffix, never an
//     acked record (acked implies fsynced, and file order is, per shard,
//     sequence order).
//
//   - Compaction. Close rewrites the history as a base file of its live
//     set (each key's last set, under its own sequence number), which a new
//     MANIFEST commits before the inputs are removed; a restart replays the
//     base, then the segments above it.
//
// The frame codec itself lives in internal/logrec: the replication wire
// format (internal/repl) carries the same frames, so the encoding exists
// exactly once. This file aliases the record vocabulary so WAL call sites
// read naturally.
package wal

import "gotle/internal/logrec"

// Op is the redo operation kind (alias of logrec.Op).
type Op = logrec.Op

// Record is one logical mutation (alias of logrec.Record), ordered by Seq
// within its shard.
type Record = logrec.Record

const (
	// OpSet stores Key=Val with Flags (covers set/add/replace/cas/incr).
	OpSet = logrec.OpSet
	// OpDelete removes Key.
	OpDelete = logrec.OpDelete
)
