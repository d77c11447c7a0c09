package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// halt stops l the way a kill after its last ack would leave it: every
// appended record fsynced, the history in its segments, uncompacted.
func halt(t testing.TB, l *Log) {
	t.Helper()
	if err := l.stop(); err != nil {
		t.Fatal(err)
	}
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
	halt(t, l)

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
	halt(t, l)
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

// TestDirectorySyncedBeforeAck pins the order a power loss needs: a new
// MANIFEST and every new segment, the first and each rotation's, are
// followed by a directory fsync before anything else happens, so before
// any record in the segment is acked. A directory entry not yet fsynced can
// vanish with the records fsynced into its file. A rotation fsyncs the
// directory after releasing the log's lock, so the waiters of the batch
// just fsynced do not wait for it.
func TestDirectorySyncedBeforeAck(t *testing.T) {
	var mu sync.Mutex
	var evs []string
	var opened atomic.Pointer[Log]
	var locked atomic.Int32 // directory fsyncs run with the log's lock held
	fsEvents = func(ev string) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
		if l := opened.Load(); l != nil && ev == "syncdir" && !freeSoon(&l.mu) {
			locked.Add(1)
		}
	}
	defer func() { fsEvents = nil }()
	l, _ := openLog(t, t.TempDir(), 1, Options{SegmentBytes: 128}, nil)
	opened.Store(l)
	for i := 1; i <= 20; i++ {
		if err := l.Append(0, mkRecord(uint64(i), OpSet, fmt.Sprintf("key%02d", i), "0123456789abcdef", 0)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	count := map[string]int{}
	for i, ev := range evs {
		count[ev]++
		if (ev == "manifest" || ev == "create") && (i+1 == len(evs) || evs[i+1] != "syncdir") {
			t.Fatalf("event %d, %s, is not followed by a directory fsync: %v", i, ev, evs)
		}
	}
	if count["manifest"] != 2 || count["create"] < 3 || count["durable"] < 20 {
		t.Fatalf("events %v: want two manifests (Open's and Close's compaction), at least 3 segments and 20 acking fsyncs", count)
	}
	if n := locked.Load(); n != 0 {
		t.Fatalf("%d rotations fsynced the directory under the log's lock", n)
	}
}

// freeSoon reports whether m can be locked within 10 ms: an appender holds
// it for microseconds, the caller's own goroutine for good.
func freeSoon(m *sync.Mutex) bool {
	for i := 0; i < 1000; i++ {
		if m.TryLock() {
			m.Unlock()
			return true
		}
		time.Sleep(10 * time.Microsecond)
	}
	return false
}

// TestManifestWrittenWhole: MANIFEST appears only by a rename of a
// fsynced temporary file, so a crash while writing it cannot leave a torn
// MANIFEST that refuses every later start, and the temporary file such a
// crash leaves does not stop the next start.
func TestManifestWrittenWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, manifestName)
	var seen []string
	fsEvents = func(ev string) {
		if ev != "manifest-tmp" {
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			seen = append(seen, fmt.Sprintf("MANIFEST exists while its body is written: %v", err))
		}
	}
	defer func() { fsEvents = nil }()
	// What a crash between creating the temporary file and renaming it
	// leaves behind.
	if err := os.WriteFile(path+".tmp", []byte(manifestBody(2)[:len(manifestVersion)+3]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _ := openLog(t, dir, 2, Options{}, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatal(seen)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != manifestBody(2) {
		t.Fatalf("MANIFEST %q, %v", b, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the temporary file outlived the rename: %v", err)
	}
	l, err := Open(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

func TestManifestRejectsShardMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 4, Options{}, nil)
	l.Close()
	if _, err := Open(dir, 8, Options{}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
}

// TestManifestRefusesIEEELog: a log written before frames carried CRC-32C
// (a "gotle-wal v2" MANIFEST, IEEE CRCs) fails Open with an error that
// names both versions. Past the MANIFEST its frames would all fail their
// CRC, and it would replay as an empty log.
func TestManifestRefusesIEEELog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("gotle-wal v2\nshards 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for seq := uint64(1); seq <= 3; seq++ {
		start := len(seg)
		seg = logrec.AppendRecord(seg, mkRecord(seq, OpSet, "k", "v", 0))
		binary.LittleEndian.PutUint32(seg[start+4:], crc32.ChecksumIEEE(seg[start+logrec.FrameHeader:]))
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, 1, Options{})
	if err == nil || !strings.Contains(err.Error(), "gotle-wal v2") || !strings.Contains(err.Error(), manifestVersion) {
		t.Fatalf("Open of a v2 log: %v; want an error naming gotle-wal v2 and %s", err, manifestVersion)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	l, n := openLog(t, dir, 1, Options{}, nil)
	l.Close()
	if n != 0 {
		t.Fatalf("IEEE frames under a %s MANIFEST replayed %d records; the refusal guards nothing", manifestVersion, n)
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
	halt(t, l)
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
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(1)), 0o644); err != nil {
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
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(1)), 0o644); err != nil {
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
// writes → crash → restart sequence. The first recovery leaves the torn
// tail in segment 0 and opens segment 1; the second must step over the
// same tear and still replay everything acked since. Then a clean Close
// compacts both segments, tear and all, into a base, and a third recovery
// replays its live set.
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
	halt(t, l)

	var seqs []uint64
	l2, n := openLog(t, dir, 1, Options{}, func(_ int, r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if n != 20 || l2.LastSeq(0) != 20 {
		t.Fatalf("second recovery replayed %d records (LastSeq %d), want all 20 acked", n, l2.LastSeq(0))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay order broken at %d: %v", i, seqs)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	seqs = nil
	l3, n := openLog(t, dir, 1, Options{}, func(_ int, r Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	defer l3.Close()
	// writeTestLog's every fourth record deletes the key of the one before.
	want := []uint64{1, 2, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if n != len(want) || l3.LastSeq(0) != 20 || !slices.Equal(seqs, want) {
		t.Fatalf("recovery of the compacted log replayed %v (LastSeq %d), want %v", seqs, l3.LastSeq(0), want)
	}
}

// writeSegments writes a one-shard log of n records straight to segment
// files, rotating once a segment reaches segBytes, and returns the number
// of segments written. rec builds the record with sequence number seq.
func writeSegments(tb testing.TB, dir string, n, segBytes int, rec func(seq uint64) Record) int {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(1)), 0o644); err != nil {
		tb.Fatal(err)
	}
	var seg []byte
	segs := 0
	flush := func() {
		if err := os.WriteFile(filepath.Join(dir, segName(segs)), seg, 0o644); err != nil {
			tb.Fatal(err)
		}
		seg = seg[:0]
		segs++
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		seg = logrec.AppendRecord(seg, rec(seq))
		if len(seg) >= segBytes {
			flush()
		}
	}
	if len(seg) > 0 {
		flush()
	}
	return segs
}

// TestRecoverAllocatesPerFrame recovers a log of over 8 MiB in two segments
// and checks that recovery allocates a frame's worth of memory, not a
// segment's: the frames stream through one reused buffer.
func TestRecoverAllocatesPerFrame(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("v"), 4000)
	const n = 2200 // 2200 frames of about 4 KiB: 8.8 MB
	if segs := writeSegments(t, dir, n, 9<<19, func(seq uint64) Record {
		return Record{Seq: seq, Op: OpSet, Key: []byte(fmt.Sprintf("key:%d", seq)), Val: val}
	}); segs != 2 {
		t.Fatalf("wrote %d segments, want 2", segs)
	}
	l, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := l.Recover(func(int, Record) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("recovering 8.8 MB allocated %d bytes, want under 1 MiB", d)
	}
}

// TestRecoverRecordLargerThanReadBuffer puts a record several times the
// size of the recovery read buffer between small ones: every record must
// come back byte-identical.
func TestRecoverRecordLargerThanReadBuffer(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 1, Options{}, nil)
	big := make([]byte, 300<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	recs := []Record{
		mkRecord(1, OpSet, "small:1", "a", 1),
		{Seq: 2, Op: OpSet, Flags: 2, Key: []byte("big"), Val: big},
		mkRecord(3, OpSet, "small:3", "c", 3),
		mkRecord(4, OpDelete, "small:1", "", 0),
	}
	for _, r := range recs {
		if err := l.Append(0, r).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	halt(t, l)
	var got []Record
	l2, n := openLog(t, dir, 1, Options{}, func(_ int, r Record) error {
		got = append(got, Record{Seq: r.Seq, Op: r.Op, Flags: r.Flags,
			Key: append([]byte(nil), r.Key...), Val: append([]byte(nil), r.Val...)})
		return nil
	})
	defer l2.Close()
	if n != len(recs) {
		t.Fatalf("recovered %d records, want %d", n, len(recs))
	}
	for i, want := range recs {
		if g := got[i]; g.Seq != want.Seq || g.Op != want.Op || g.Flags != want.Flags ||
			!bytes.Equal(g.Key, want.Key) || !bytes.Equal(g.Val, want.Val) {
			t.Fatalf("record %d: seq %d key %q, %d value bytes; want seq %d key %q, %d bytes",
				i, g.Seq, g.Key, len(g.Val), want.Seq, want.Key, len(want.Val))
		}
	}
}

// TestRecoverReadErrorFails: a directory with a segment's name cannot be
// read, and that is a failed recovery, not a torn tail to step over.
func TestRecoverReadErrorFails(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 3, 1<<20, func(seq uint64) Record {
		return mkRecord(seq, OpSet, "k", "v", 0)
	})
	if err := os.Mkdir(filepath.Join(dir, segName(1)), 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.Recover(nil); err == nil {
		l.Close()
		t.Fatalf("Recover over an unreadable segment replayed %d records and reported no error", n)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestRecoverGapClosesSegments stops a replay at a sequence gap in the
// second of three segments and checks that no segment file stays open.
func TestRecoverGapClosesSegments(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 9, 3*len(logrec.AppendRecord(nil, mkRecord(1, OpSet, "k", "v", 0))), func(seq uint64) Record {
		if seq >= 5 {
			seq++ // segment 1 holds 4, 6: a gap after 4
		}
		return mkRecord(seq, OpSet, "k", "v", 0)
	})
	// One recovery first, so whatever the runtime opens once is open
	// before the count.
	l, _ := openLog(t, t.TempDir(), 1, Options{}, nil)
	l.Close()
	before := openFDs(t)
	l, n := openLog(t, dir, 1, Options{}, nil)
	if n != 4 {
		t.Fatalf("replayed %d records, want the 4 before the gap", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after recovery and Close, %d before", after, before)
	}
}

// BenchmarkRecover replays 200 000 records with 64-byte values from 8 MiB
// segments, the shape of the benchmark's serve-durable seed log, uncompacted.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	const n = 200_000
	val := bytes.Repeat([]byte("v"), 64)
	segs := writeSegments(b, dir, n, 8<<20, func(seq uint64) Record {
		return Record{Seq: seq, Op: OpSet, Key: []byte(fmt.Sprintf("key:%06d", seq%50_000)), Val: val}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, 1, Options{})
		if err != nil {
			b.Fatal(err)
		}
		got, err := l.Recover(func(int, Record) error { return nil })
		if err != nil || got != n {
			b.Fatalf("recovered %d records (%v), want %d", got, err, n)
		}
		b.StopTimer()
		halt(b, l)
		// Recover opened a fresh segment for appends; drop it so every
		// iteration replays the same files.
		if err := os.Remove(filepath.Join(dir, segName(segs))); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// newReader opens a reader of l's records above after, closed at cleanup.
func newReader(t *testing.T, l *Log, after []uint64) *Reader {
	t.Helper()
	r, err := l.NewReader(after)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// readNext collects one Next call's frames as shard/seq pairs, checking
// that each frame decodes to the seq it was reported with.
func readNext(t *testing.T, r *Reader) [][2]uint64 {
	t.Helper()
	var got [][2]uint64
	err := r.Next(func(sh int, seq uint64, frame []byte) error {
		rec, n, err := logrec.DecodeRecord(frame)
		if err != nil || n != len(frame) || rec.Seq != seq || int(rec.Shard) != sh {
			t.Fatalf("frame for shard %d seq %d decodes to shard %d seq %d (%d of %d bytes, %v)", sh, seq, rec.Shard, rec.Seq, n, len(frame), err)
		}
		got = append(got, [2]uint64{uint64(sh), seq})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// continues checks that got continues each shard's run from next, and
// advances next over it.
func continues(t *testing.T, got [][2]uint64, next []uint64) {
	t.Helper()
	for _, g := range got {
		if next[g[0]]+1 != g[1] {
			t.Fatalf("shard %d seq %d does not continue %d", g[0], g[1], next[g[0]])
		}
		next[g[0]] = g[1]
	}
}

// TestReaderAfterTornTail reopens a log whose first segment ends in a torn
// frame and appends to it: a reader returns this run's records above any
// cursor at or above the recovered tail, and refuses a cursor below it
// (the earlier segments, torn tail and all, are Recover's).
func TestReaderAfterTornTail(t *testing.T) {
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
	l, _ := openLog(t, dir, 1, Options{}, nil)
	defer l.Close()
	for seq := uint64(11); seq <= 20; seq++ {
		if err := l.Append(0, mkRecord(seq, OpSet, fmt.Sprintf("key:%d", seq), "acked", 0)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, after := range []uint64{10, 13, 19, 20} {
		got := readNext(t, newReader(t, l, []uint64{after}))
		if len(got) != int(20-after) {
			t.Fatalf("after %d: read %d records, want %d", after, len(got), 20-after)
		}
		continues(t, got, []uint64{after})
	}
	if _, err := l.NewReader([]uint64{3}); err == nil {
		t.Fatal("a reader below the recovered tail was accepted")
	}
}

// TestReaderWhileAppending reads the active segment, on two shards, while
// an appender keeps writing and segments rotate: each Next of one reader
// continues the last, per shard, gaplessly, up to a watermark no lower than
// the durable one when the call began and no higher than when it ended; a
// fresh reader at any cursor reads the same run.
func TestReaderWhileAppending(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), 2, Options{SegmentBytes: 4 << 10, FsyncWindow: 100 * time.Microsecond}, nil)
	defer l.Close()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var seq [2]uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			sh := i % 2
			seq[sh]++
			tk := l.Append(sh, mkRecord(seq[sh], OpSet, fmt.Sprintf("key:%d", i), "some value bytes", 0))
			if i%64 == 63 {
				if err := tk.Wait(); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	r := newReader(t, l, []uint64{0, 0})
	next := []uint64{0, 0}
	deadline := time.Now().Add(10 * time.Second)
	for reads := 0; reads < 20 || l.Stats().Segments < 4; reads++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d reads in 10 s, the appender at %d segments", reads, l.Stats().Segments)
		}
		time.Sleep(time.Millisecond)
		before := []uint64{l.Durable(0), l.Durable(1)}
		if reads%4 == 3 {
			fresh := slices.Clone(next)
			continues(t, readNext(t, newReader(t, l, next)), fresh)
		}
		continues(t, readNext(t, r), next)
		for sh := range next {
			if next[sh] < before[sh] || next[sh] > l.Durable(sh) {
				t.Fatalf("read %d: shard %d read up to %d; durable was %d before the read and is %d after", reads, sh, next[sh], before[sh], l.Durable(sh))
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReaderKeepsItsPlace deletes every segment before the one a reader
// has reached: the reader still returns exactly the records appended
// since, and a new reader at its cursor starts in that segment. A reader
// that went back to the first segment would fail on the missing files.
func TestReaderKeepsItsPlace(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, 2, Options{SegmentBytes: 1 << 10}, nil)
	defer l.Close()
	var seq [2]uint64
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			sh := i % 2
			seq[sh]++
			if err := l.Append(sh, mkRecord(seq[sh], OpSet, fmt.Sprintf("key:%d", i), "some value bytes", 0)).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(200)
	r := newReader(t, l, []uint64{0, 0})
	next := []uint64{0, 0}
	continues(t, readNext(t, r), next)
	if next[0] != 100 || next[1] != 100 || r.seg < 5 {
		t.Fatalf("read up to %v in segment %d; want 100 per shard and several segments", next, r.seg)
	}
	for idx := 0; idx < r.seg; idx++ {
		if err := os.Remove(filepath.Join(dir, segName(idx))); err != nil {
			t.Fatal(err)
		}
	}
	appendN(100)
	got := readNext(t, r)
	continues(t, got, next)
	if len(got) != 100 {
		t.Fatalf("read %d records after the first 200, want 100", len(got))
	}
	fresh := newReader(t, l, []uint64{100, 100})
	got = readNext(t, fresh)
	continues(t, got, []uint64{100, 100})
	if len(got) != 100 {
		t.Fatalf("a reader at 100 per shard read %d records, want 100", len(got))
	}
}

// TestReaderSplitFrame reads while the syncer has written a batch it has
// not yet fsynced, with reads shorter than two frames: the read that
// completes the last durable frame takes in part of the next, which is not
// durable. Next returns the durable frames only; the next Next returns the
// split frame once, whole. No descriptor stays open.
func TestReaderSplitFrame(t *testing.T) {
	frame := func(seq uint64) []byte {
		return logrec.AppendRecord(nil, Record{Seq: seq, Op: OpSet, Key: []byte(fmt.Sprintf("key:%04d", seq)), Val: []byte("value")})
	}
	size := len(frame(1))
	defer func(n int) { scanBytes = n }(scanBytes)
	scanBytes = size * 13 / 10
	var armed atomic.Bool
	var split bool
	var r *Reader
	var next func()
	fsEvents = func(ev string) {
		if ev != "written" || !armed.Load() || split {
			return
		}
		// Frames 3 and 4 are in the file, and only 1 and 2 are durable.
		next()
		_, _, err := logrec.DecodeRecord(r.sc.buf[r.sc.pos:r.sc.end])
		split = r.sc.end > r.sc.pos && err == logrec.ErrTorn
	}
	defer func() { fsEvents = nil }()
	l, _ := openLog(t, t.TempDir(), 1, Options{FsyncWindow: -1}, nil)
	l.Close() // a log's first start opens descriptors for good; count after it
	before := openFDs(t)

	l, _ = openLog(t, t.TempDir(), 1, Options{FsyncWindow: -1}, nil)
	defer l.Close()
	r, err := l.NewReader([]uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var bad []string
	next = func() {
		err := r.Next(func(sh int, seq uint64, fr []byte) error {
			if !bytes.Equal(fr, frame(seq)) {
				bad = append(bad, fmt.Sprintf("seq %d: frame %x", seq, fr))
			}
			if d := l.Durable(0); seq > d {
				bad = append(bad, fmt.Sprintf("seq %d returned at durable %d", seq, d))
			}
			got = append(got, seq)
			return nil
		})
		if err != nil {
			bad = append(bad, err.Error())
		}
	}
	emit := func(first uint64) {
		l.Emit(0, first, 2, append(frame(first), frame(first+1)...))
		if err := l.TicketFor(0, first+1).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	emit(1)
	armed.Store(true)
	emit(3)
	if !split || !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("read %v while 3 and 4 were written but not durable; a part of 3 held back: %v", got, split)
	}
	next()
	if len(bad) != 0 || !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("read %v: %v", got, bad)
	}
	r.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open after the reader and the log closed, %d before", after, before)
	}
}
