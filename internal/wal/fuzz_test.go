package wal

import (
	"bytes"
	"os"
	"path/filepath"
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

// FuzzSegmentScan checks the segment scanner against a reference. plan
// writes one or more segments of a two-shard log three bytes an op at a
// time: records of any size (some larger than a read), sequence gaps,
// records of a shard the log does not have, cuts and bit flips; chunk sets
// the scanner's read size. The records Log.Recover replays, and those a
// Reader over the same segment files returns up to the same watermarks,
// must equal the reference: logrec.DecodeRecord over each whole file, up to
// its first error, with the replay ending at the first record that does not
// continue its shard's sequence.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 9, 1, 0, 0, 7, 0, 0, 2, 4, 4}, uint16(17))
	f.Add([]byte{3, 255, 255, 0, 3, 3, 5, 2, 0, 7, 0, 0, 1, 1, 1, 6, 0, 40, 0, 5, 5}, uint16(64))
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0, 1, 1, 2, 255, 0, 0, 0, 0}, uint16(1))
	f.Fuzz(func(t *testing.T, plan []byte, chunk uint16) {
		const shards = 2
		defer func(n int) { scanBytes = n }(scanBytes)
		scanBytes = 1 + int(chunk)%512

		segs := [][]byte{nil}
		var seq [shards + 1]uint64
		for i := 0; i+2 < len(plan); i += 3 {
			kind, a, b := plan[i], plan[i+1], plan[i+2]
			cur := &segs[len(segs)-1]
			switch kind % 8 {
			case 0, 1, 2, 3:
				sh := int(a % shards)
				if a == 255 {
					sh = shards
				}
				vlen := int(b)
				if kind%8 == 3 {
					vlen *= 37 // up to 9 KiB: frames larger than a read
				}
				seq[sh]++
				r := Record{Seq: seq[sh], Shard: uint16(sh), Op: OpSet, Flags: uint32(b),
					Key: bytes.Repeat([]byte{a}, 1+int(a)%13), Val: bytes.Repeat([]byte{b}, vlen)}
				if kind&0x10 != 0 {
					r.Op, r.Val = OpDelete, nil
				}
				*cur = logrec.AppendRecord(*cur, r)
			case 4:
				seq[a%shards]++ // a gap
			case 5:
				*cur = (*cur)[:len(*cur)-min(len(*cur), 1+int(a)%24)]
			case 6:
				if len(*cur) > 0 {
					(*cur)[(int(a)<<8|int(b))%len(*cur)] ^= 1 << (kind >> 5)
				}
			case 7:
				segs = append(segs, nil)
			}
		}

		var want []Record
		var last [shards]uint64
	ref:
		for _, b := range segs {
			for off := 0; ; {
				r, n, err := logrec.DecodeRecord(b[off:])
				if err != nil {
					break
				}
				if int(r.Shard) >= shards || r.Seq != last[r.Shard]+1 {
					break ref
				}
				want = append(want, r)
				last[r.Shard] = r.Seq
				off += n
			}
		}
		writeSegs := func(dir string) {
			for i, b := range segs {
				if err := os.WriteFile(filepath.Join(dir, segName(i)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		same := func(what string, got []Record) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s returned %d records, the reference %d", what, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Seq != w.Seq || g.Shard != w.Shard || g.Op != w.Op || g.Flags != w.Flags ||
					!bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Val, w.Val) {
					t.Fatalf("%s record %d: shard %d seq %d, the reference shard %d seq %d", what, i, g.Shard, g.Seq, w.Shard, w.Seq)
				}
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(shards)), 0o644); err != nil {
			t.Fatal(err)
		}
		writeSegs(dir)
		l, err := Open(dir, shards, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		n, err := l.Recover(func(sh int, r Record) error {
			r.Key, r.Val = bytes.Clone(r.Key), bytes.Clone(r.Val)
			got = append(got, r)
			return nil
		})
		l.Close()
		if err != nil || n != len(got) {
			t.Fatalf("Recover: %d records, %v", n, err)
		}
		same("Recover", got)

		// A Reader reads the segments written since Recover: recover an
		// empty log, put the fuzzed segments in the place of its first, and
		// make the reference's records durable.
		dir = t.TempDir()
		l, err = Open(dir, shards, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(nil); err != nil {
			t.Fatal(err)
		}
		l.Close()
		writeSegs(dir)
		l.mu.Lock()
		l.storeDurable(last[:])
		l.mu.Unlock()
		rd, err := l.NewReader(make([]uint64, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		got = got[:0]
		if err := rd.Next(func(sh int, seq uint64, frame []byte) error {
			r, n, err := logrec.DecodeRecord(frame)
			if err != nil || n != len(frame) || int(r.Shard) != sh || r.Seq != seq {
				t.Fatalf("Reader frame for shard %d seq %d: %d of %d bytes, %v", sh, seq, n, len(frame), err)
			}
			r.Key, r.Val = bytes.Clone(r.Key), bytes.Clone(r.Val)
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		same("Reader", got)
	})
}
