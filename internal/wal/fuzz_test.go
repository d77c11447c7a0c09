package wal

import (
	"bytes"
	"testing"

	"gotle/internal/logrec"
)

// FuzzWALRecord fuzzes the record framing both ways: every record must
// round-trip exactly, every single-byte mutation of a frame must be
// rejected (CRC) or observably different, and the decoder must never
// panic on arbitrary bytes (the torn-tail scanner feeds it raw file
// suffixes).
func FuzzWALRecord(f *testing.F) {
	f.Add(uint64(1), byte(1), uint32(0), []byte("key"), []byte("value"), uint16(3))
	f.Add(uint64(1<<40), byte(2), uint32(7), []byte("k"), []byte{}, uint16(0))
	f.Add(uint64(0), byte(9), uint32(1<<31), bytes.Repeat([]byte{0}, 250), bytes.Repeat([]byte("xy"), 512), uint16(999))
	f.Fuzz(func(t *testing.T, seq uint64, opRaw byte, flags uint32, key, val []byte, mutPos uint16) {
		if len(key) > 1<<10 || len(val) > 1<<16 {
			return
		}
		op := OpSet
		if opRaw%2 == 0 {
			op = OpDelete
		}
		rec := Record{Seq: seq, Op: op, Flags: flags, Key: key, Val: val}
		frame := logrec.AppendRecord(nil, rec)

		got, n, err := logrec.DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode of fresh frame: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if got.Seq != seq || got.Op != op || got.Flags != flags ||
			!bytes.Equal(got.Key, key) || !bytes.Equal(got.Val, val) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, rec)
		}

		// A second record appended after the first decodes from the tail.
		two := logrec.AppendRecord(frame, Record{Seq: seq + 1, Op: OpDelete, Key: key})
		if _, m, err := logrec.DecodeRecord(two[n:]); err != nil || n+m != len(two) {
			t.Fatalf("second frame: n=%d m=%d err=%v", n, m, err)
		}

		// Single-byte mutation: the decoder must not return the original
		// record as if nothing happened.
		mut := append([]byte(nil), frame...)
		i := int(mutPos) % len(mut)
		mut[i] ^= 1 << (mutPos % 8)
		if mut[i] == frame[i] {
			mut[i] ^= 1
		}
		mr, mn, merr := logrec.DecodeRecord(mut)
		if merr == nil && mn == n && mr.Seq == seq && mr.Op == op && mr.Flags == flags &&
			bytes.Equal(mr.Key, key) && bytes.Equal(mr.Val, val) {
			t.Fatalf("mutation at byte %d went undetected", i)
		}

		// Raw bytes (treat key as a hostile file tail): no panic allowed.
		_, _, _ = logrec.DecodeRecord(key)
		_, _, _ = logrec.DecodeRecord(val)
	})
}
