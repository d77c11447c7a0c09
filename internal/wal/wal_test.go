package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gotle/internal/logrec"
)

func mkRecord(seq uint64, op Op, key, val string, flags uint32) Record {
	return Record{Seq: seq, Op: op, Flags: flags, Key: []byte(key), Val: []byte(val)}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		mkRecord(1, OpSet, "k", "v", 0),
		mkRecord(2, OpSet, "key:42", "", 7),
		mkRecord(3, OpDelete, "key:42", "", 0),
		mkRecord(1<<63, OpSet, string(bytes.Repeat([]byte{0xff}, 250)), string(bytes.Repeat([]byte("ab"), 4096)), 1<<31),
	}
	var buf []byte
	for _, r := range recs {
		buf = logrec.AppendRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := logrec.DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Op != want.Op || got.Flags != want.Flags ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeShortAndCorrupt(t *testing.T) {
	frame := logrec.AppendRecord(nil, mkRecord(1, OpSet, "key", "value", 3))
	// Every proper prefix is torn, never a panic.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := logrec.DecodeRecord(frame[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(frame))
		}
	}
	// Every single-byte mutation is rejected (or decodes to something
	// observably different; CRC makes silent identity impossible).
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		r, n, err := logrec.DecodeRecord(mut)
		if err == nil && n == len(frame) && r.Seq == 1 && string(r.Key) == "key" && string(r.Val) == "value" {
			t.Fatalf("mutation at byte %d decoded to the original record", i)
		}
	}
}

// openLog opens and recovers a log, failing the test on error.
func openLog(t *testing.T, dir string, shards int, opts Options, apply func(int, Record) error) (*Log, int) {
	t.Helper()
	l, err := Open(dir, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l.Recover(apply)
	if err != nil {
		t.Fatal(err)
	}
	return l, n
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, n := openLog(t, dir, 2, Options{}, nil)
	if n != 0 {
		t.Fatalf("fresh log recovered %d records", n)
	}
	var tickets []Ticket
	for i := 1; i <= 10; i++ {
		tickets = append(tickets, l.Append(0, mkRecord(uint64(i), OpSet, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), uint32(i))))
	}
	tickets = append(tickets, l.Append(1, mkRecord(1, OpDelete, "other", "", 0)))
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	l2, n := openLog(t, dir, 2, Options{}, func(sh int, r Record) error {
		got = append(got, Record{Seq: r.Seq, Op: r.Op, Flags: r.Flags,
			Key: append([]byte(nil), r.Key...), Val: append([]byte(nil), r.Val...)})
		return nil
	})
	defer l2.Close()
	if n != 11 || len(got) != 11 {
		t.Fatalf("recovered %d records, want 11", n)
	}
	if l2.LastSeq(0) != 10 || l2.LastSeq(1) != 1 {
		t.Fatalf("LastSeq = %d,%d want 10,1", l2.LastSeq(0), l2.LastSeq(1))
	}
	// Sequence numbering resumes after the recovered tail.
	if err := l2.Append(0, mkRecord(11, OpSet, "k11", "v11", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestNonContiguousAppendFailsLoudly: the log takes records in sequence
// order only (logrec.Stream reorders upstream). A seq that skips ahead
// must poison the log — failing its own ticket and every later one —
// rather than put a gap in the file that recovery would stop at.
func TestNonContiguousAppendFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, Options{}, nil)
	if err := l.Append(0, mkRecord(1, OpSet, "k", "v", 0)).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0, mkRecord(3, OpSet, "k", "v", 0)).Wait(); err == nil {
		t.Fatal("append of seq 3 after seq 1 was acked")
	}
	if err := l.Append(0, mkRecord(2, OpSet, "k", "v", 0)).Wait(); err == nil {
		t.Fatal("append to a poisoned log was acked")
	}
	l.Emit(0, 2, 1, logrec.AppendRecord(nil, mkRecord(2, OpSet, "k", "v", 0)))
	if err := l.TicketFor(0, 2).Wait(); err == nil {
		t.Fatal("emit to a poisoned log was acked")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close of a poisoned log reported no error")
	}
	l2, n := openLog(t, dir, 1, Options{}, nil)
	defer l2.Close()
	if n != 1 {
		t.Fatalf("recovered %d records, want the 1 acked", n)
	}
}

func TestConcurrentAppendersAllDurable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, Options{}, nil)

	const n = 400
	var mu sync.Mutex
	next := uint64(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				next++
				// Draw and append under one lock: the log takes a shard's
				// records in sequence order only. The waits still overlap.
				tk := l.Append(0, mkRecord(next, OpSet, fmt.Sprintf("k%d", next), "v", 0))
				mu.Unlock()
				if err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openLog(t, dir, 1, Options{}, nil)
	defer l2.Close()
	if got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if st := l.Stats(); st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs (%d) > appends (%d)", st.Fsyncs, st.Appends)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, Options{SegmentBytes: 128}, nil)
	const n = 20
	for i := 1; i <= n; i++ {
		if err := l.Append(0, mkRecord(uint64(i), OpSet, fmt.Sprintf("key%02d", i), "0123456789abcdef", 0)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := (&Log{dir: dir}).segmentsList()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %v", segs)
	}
	var seqs []uint64
	l2, got := openLog(t, dir, 1, Options{SegmentBytes: 128}, func(sh int, r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	defer l2.Close()
	if got != n {
		t.Fatalf("recovered %d records across segments, want %d", got, n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay order broken at %d: %v", i, seqs)
		}
	}
}

func TestManifestRejectsShardMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 4, Options{}, nil)
	l.Close()
	if _, err := Open(dir, 8, Options{}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
}

// writeTestLog records n known records into a fresh log dir and returns
// the records and the single segment's path.
func writeTestLog(t *testing.T, dir string, n int) ([]Record, string) {
	t.Helper()
	l, _ := openLog(t, dir, 1, Options{}, nil)
	var recs []Record
	for i := 1; i <= n; i++ {
		r := mkRecord(uint64(i), OpSet, fmt.Sprintf("key:%d", i), fmt.Sprintf("value-%d-%s", i, "padpadpad"), uint32(i))
		if i%4 == 0 {
			r = mkRecord(uint64(i), OpDelete, fmt.Sprintf("key:%d", i-1), "", 0)
		}
		recs = append(recs, r)
		if err := l.Append(0, r).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, filepath.Join(dir, segName(0))
}

// TestTornTailEveryOffset truncates a recorded segment at every byte
// offset of its final record and asserts recovery stops cleanly at the
// last complete record: no panic, no error, exactly the prefix replayed.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	const n = 6
	recs, segPath := writeTestLog(t, src, n)
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find the final record's start offset by walking the frames.
	off, last := 0, 0
	for off < len(seg) {
		_, m, err := logrec.DecodeRecord(seg[off:])
		if err != nil {
			t.Fatalf("intact segment failed to decode at %d: %v", off, err)
		}
		last = off
		off += m
	}
	for cut := last; cut <= len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("gotle-wal v2\nshards 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(0)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		l, cnt := openLog(t, dir, 1, Options{}, func(sh int, r Record) error {
			got = append(got, Record{Seq: r.Seq, Op: r.Op, Flags: r.Flags,
				Key: append([]byte(nil), r.Key...), Val: append([]byte(nil), r.Val...)})
			return nil
		})
		want := n - 1
		if cut == len(seg) {
			want = n
		}
		if cnt != want || len(got) != want {
			t.Fatalf("cut at %d/%d: recovered %d records, want %d", cut, len(seg), cnt, want)
		}
		for i := range got {
			if got[i].Seq != recs[i].Seq || got[i].Op != recs[i].Op || got[i].Flags != recs[i].Flags ||
				!bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Val, recs[i].Val) {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
		// The log stays appendable after dropping a torn tail, resuming
		// the sequence right where the intact prefix ended.
		if err := l.Append(0, mkRecord(uint64(want+1), OpSet, "post", "crash", 0)).Wait(); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		l.Close()
	}
}

// TestCorruptMidFileStopsAtPrefix flips one byte inside an interior record
// and asserts recovery replays exactly the records before it.
func TestCorruptMidFileStopsAtPrefix(t *testing.T) {
	src := t.TempDir()
	const n = 6
	_, segPath := writeTestLog(t, src, n)
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Walk to record 4's payload and flip a byte.
	off := 0
	for i := 0; i < 3; i++ {
		_, m, err := logrec.DecodeRecord(seg[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += m
	}
	mut := append([]byte(nil), seg...)
	mut[off+logrec.FrameHeader+2] ^= 0xff

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("gotle-wal v2\nshards 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	l, cnt := openLog(t, dir, 1, Options{}, nil)
	defer l.Close()
	if cnt != 3 {
		t.Fatalf("recovered %d records past a corrupt frame, want 3", cnt)
	}
	if l.LastSeq(0) != 3 {
		t.Fatalf("LastSeq = %d want 3", l.LastSeq(0))
	}
}

// TestRecoverTwiceAcrossTornTail is the crash → restart → more acked
// writes → restart sequence. The first recovery leaves the torn tail in
// segment 0 and opens segment 1; the second must step over the same tear
// and still replay everything acked since.
func TestRecoverTwiceAcrossTornTail(t *testing.T) {
	dir := t.TempDir()
	_, segPath := writeTestLog(t, dir, 10)
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := logrec.AppendRecord(nil, mkRecord(11, OpSet, "torn", "never-acked", 0))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, n := openLog(t, dir, 1, Options{}, nil)
	if n != 10 {
		t.Fatalf("first recovery replayed %d records, want 10", n)
	}
	for seq := uint64(11); seq <= 20; seq++ {
		if err := l.Append(0, mkRecord(seq, OpSet, fmt.Sprintf("key:%d", seq), "acked", 0)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var seqs []uint64
	l2, n := openLog(t, dir, 1, Options{}, func(_ int, r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	defer l2.Close()
	if n != 20 || l2.LastSeq(0) != 20 {
		t.Fatalf("second recovery replayed %d records (LastSeq %d), want all 20 acked", n, l2.LastSeq(0))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay order broken at %d: %v", i, seqs)
		}
	}
}
