package logrec_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"gotle/internal/logrec"
	"gotle/internal/repl"
	"gotle/internal/wal"
)

func mkRecord(seq uint64, key, val string) logrec.Record {
	return logrec.Record{Seq: seq, Op: logrec.OpSet, Key: []byte(key), Val: []byte(val)}
}

// run is one Sink.Emit call as a recording sink saw it.
type run struct {
	shard  int
	first  uint64
	n      int
	frames []byte
}

type recSink struct{ runs []run }

func (k *recSink) Emit(shard int, first uint64, n int, frames []byte) {
	k.runs = append(k.runs, run{shard, first, n, append([]byte(nil), frames...)})
}

// TestStreamRunShape pins what a sink is promised: one publish arrives
// as one run, an early arrival reaches no sink until its predecessors do,
// and then the whole contiguous stretch arrives as one run, framed with
// the shard stamped in.
func TestStreamRunShape(t *testing.T) {
	st := logrec.NewStream([]uint64{0, 7})
	var k recSink
	st.Attach(&k)

	st.Publish(1, []logrec.Record{mkRecord(8, "a", "1"), mkRecord(9, "b", "2"), mkRecord(10, "c", "3")})
	st.Publish(0, []logrec.Record{mkRecord(3, "e", "5"), mkRecord(4, "f", "6")})
	st.Publish(0, []logrec.Record{mkRecord(2, "d", "4")})
	if len(k.runs) != 1 || k.runs[0].shard != 1 || k.runs[0].first != 8 || k.runs[0].n != 3 {
		t.Fatalf("after a three-record publish and two early arrivals: runs = %+v, want one run {shard 1, first 8, n 3}", k.runs)
	}
	st.Publish(0, []logrec.Record{mkRecord(1, "g", "7")})
	if len(k.runs) != 2 || k.runs[1].shard != 0 || k.runs[1].first != 1 || k.runs[1].n != 4 {
		t.Fatalf("after the gap filled: runs = %+v, want a second run {shard 0, first 1, n 4}", k.runs)
	}
	frames := k.runs[1].frames
	for seq := uint64(1); seq <= 4; seq++ {
		rec, n, err := logrec.DecodeRecord(frames)
		if err != nil || rec.Seq != seq || rec.Shard != 0 {
			t.Fatalf("frame %d of the released run: %+v, %v", seq, rec, err)
		}
		frames = frames[n:]
	}
	if len(frames) != 0 {
		t.Fatalf("%d stray bytes after the run's 4 frames", len(frames))
	}
	if released, parked := st.Counts(); released != 7 || parked != 3 {
		t.Fatalf("Counts = %d released, %d parked; want 7, 3", released, parked)
	}
}

// openSinks builds a stream over a fresh WAL (in dir) and a Source
// listening on addr.
func openSinks(t *testing.T, shards int) (st *logrec.Stream, l *wal.Log, src *repl.Source, dir, addr string) {
	t.Helper()
	dir = t.TempDir()
	l, err := wal.Open(dir, shards, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatal(err)
	}
	src = repl.NewSource(shards, nil)
	bound, err := src.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close(time.Second) })
	st = logrec.NewStream(make([]uint64, shards))
	st.Attach(l)
	st.Attach(src)
	return st, l, src, dir, bound.String()
}

func TestOutOfOrderPublishGroupsIntoOneFsync(t *testing.T) {
	st, l, src, _, _ := openSinks(t, 1)
	defer l.Close()

	// Publish seqs 2..50 first: nothing is contiguous, so nothing reaches
	// either sink and no ticket can resolve yet.
	for seq := uint64(2); seq <= 50; seq++ {
		st.Publish(0, []logrec.Record{mkRecord(seq, "k", "v")})
	}
	if ws := l.Stats(); ws.Appends != 0 || ws.Fsyncs != 0 || src.Seq(0) != 0 {
		t.Fatalf("before the gap filled: %d appends, %d fsyncs, source at seq %d", ws.Appends, ws.Fsyncs, src.Seq(0))
	}
	// Seq 1 arrives: the whole run drains contiguously and ships as one
	// group-commit batch.
	st.Publish(0, []logrec.Record{mkRecord(1, "k", "v")})
	for seq := uint64(1); seq <= 50; seq++ {
		if err := l.TicketFor(0, seq).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ws := l.Stats()
	if ws.Appends != 50 || src.Seq(0) != 50 {
		t.Fatalf("appends = %d, source at seq %d; want 50, 50", ws.Appends, src.Seq(0))
	}
	if ws.Fsyncs == 0 || ws.Fsyncs > 3 {
		t.Fatalf("fsyncs = %d; 50 contiguous records should ride O(1) group commits", ws.Fsyncs)
	}
	if released, parked := st.Counts(); released != 50 || parked != 49 {
		t.Fatalf("Counts = %d released, %d parked; want 50, 49", released, parked)
	}
}

// walFrames returns, per shard, the raw frames of dir's segments in file
// order.
func walFrames(t *testing.T, dir string, shards int) [][][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "w-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	out := make([][][]byte, shards)
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			rec, n, err := logrec.DecodeRecord(b)
			if err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			out[rec.Shard] = append(out[rec.Shard], b[:n])
			b = b[n:]
		}
	}
	return out
}

// wireFrames subscribes to the source from cursor zero and returns, per
// shard, the first want record frames it streams, in wire order, each
// still behind its envelope kind byte.
func wireFrames(t *testing.T, addr string, shards, want int) [][][]byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	hello := fmt.Sprintf("%s %d", repl.Protocol, shards)
	for i := 0; i < shards; i++ {
		hello += " 0"
	}
	if _, err := io.WriteString(c, hello+"\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	if line, err := br.ReadString('\n'); err != nil || line != fmt.Sprintf("OK %d\r\n", shards) {
		t.Fatalf("handshake reply %q, %v", line, err)
	}
	out := make([][][]byte, shards)
	var buf []byte
	chunk := make([]byte, 64<<10)
	for got := 0; got < want; {
		n, err := br.Read(chunk)
		if err != nil {
			t.Fatalf("after %d of %d records: %v", got, want, err)
		}
		buf = append(buf, chunk[:n]...)
		for {
			fr, used, err := repl.DecodeFrame(buf)
			if errors.Is(err, repl.ErrTorn) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if fr.Kind == repl.FrameRecord {
				out[fr.Rec.Shard] = append(out[fr.Rec.Shard], append([]byte(nil), buf[:used]...))
				got++
			}
			buf = buf[used:]
		}
	}
	return out
}

// TestConcurrentPublishersBothSinksInSeqOrder: many goroutines draw
// per-shard sequence numbers under a lock and publish outside it, singly
// and in multi-record runs, so arrival order is scrambled. Both sinks must end up
// with each shard's records in exact sequence order, and with the very
// same frame bytes — each record is framed once, upstream of both.
func TestConcurrentPublishersBothSinksInSeqOrder(t *testing.T) {
	const shards, workers, perWorker = 2, 8, 300
	st, l, _, dir, addr := openSinks(t, shards)

	var mu sync.Mutex
	next := make([]uint64, shards)
	total := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shard, n := (w+i)%shards, 1+i%3
				recs := make([]logrec.Record, n)
				mu.Lock()
				for j := range recs {
					next[shard]++
					recs[j] = mkRecord(next[shard], fmt.Sprintf("w%d", w), fmt.Sprintf("value-%d-%d", i, j))
				}
				total += n
				mu.Unlock()
				st.Publish(shard, recs)
			}
		}(w)
	}
	wg.Wait()
	for sh := 0; sh < shards; sh++ {
		if err := l.TicketFor(sh, next[sh]).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	released, parked := st.Counts()
	if released != uint64(total) {
		t.Fatalf("released %d of %d published records", released, total)
	}
	t.Logf("%d records, %d parked on the way", total, parked)

	disk := walFrames(t, dir, shards) // before Close, which compacts the segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wire := wireFrames(t, addr, shards, total)
	for sh := 0; sh < shards; sh++ {
		if uint64(len(disk[sh])) != next[sh] || uint64(len(wire[sh])) != next[sh] {
			t.Fatalf("shard %d: %d frames on disk, %d on the wire, want %d", sh, len(disk[sh]), len(wire[sh]), next[sh])
		}
		for i, f := range disk[sh] {
			rec, _, _ := logrec.DecodeRecord(f)
			if rec.Seq != uint64(i+1) {
				t.Fatalf("shard %d: file position %d holds seq %d", sh, i, rec.Seq)
			}
			if w := wire[sh][i]; w[0] != repl.FrameRecord || !bytes.Equal(w[1:], f) {
				t.Fatalf("shard %d seq %d: wire frame differs from the disk frame", sh, rec.Seq)
			}
		}
	}
}
