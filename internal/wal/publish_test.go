package wal_test

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

func mkRecord(seq uint64, key, val string) wal.Record {
	return wal.Record{Seq: seq, Op: wal.OpSet, Key: []byte(key), Val: []byte(val)}
}

// openSource opens a fresh WAL in dir and a Source that sends followers,
// on addr, what the log has fsynced.
func openSource(t *testing.T, shards int) (l *wal.Log, src *repl.Source, dir, addr string) {
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
	src.AttachLog(l)
	bound, err := src.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close(time.Second) })
	return l, src, dir, bound.String()
}

func TestOutOfOrderAppendsGroupIntoOneFsync(t *testing.T) {
	l, src, _, _ := openSource(t, 1)
	defer l.Close()

	// Append seqs 2..50 first: nothing is contiguous, so nothing is
	// written, the source has nothing to publish and no ticket can resolve.
	for seq := uint64(2); seq <= 50; seq++ {
		l.Append(0, mkRecord(seq, "k", "v"))
	}
	if ws := l.Stats(); ws.Appends != 0 || ws.Fsyncs != 0 || src.Seq(0) != 0 {
		t.Fatalf("before the gap filled: %d appends, %d fsyncs, source at seq %d", ws.Appends, ws.Fsyncs, src.Seq(0))
	}
	// Seq 1 arrives: the whole run is written contiguously and rides one
	// group-commit batch.
	l.Append(0, mkRecord(1, "k", "v"))
	for seq := uint64(1); seq <= 50; seq++ {
		if err := l.TicketFor(0, seq).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ws := l.Stats()
	if ws.Appends != 50 || ws.Parked != 49 || src.Seq(0) != 50 {
		t.Fatalf("%d appends, %d parked, source at seq %d; want 50, 49, 50", ws.Appends, ws.Parked, src.Seq(0))
	}
	if ws.Fsyncs == 0 || ws.Fsyncs > 3 {
		t.Fatalf("fsyncs = %d; 50 contiguous records should ride O(1) group commits", ws.Fsyncs)
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
// per-shard sequence numbers under a lock and append outside it, in runs
// of one to three, so arrival order is scrambled. Both consumers of the
// records see them in sequence order: the log's files hold each shard's
// records in exact sequence order, and a follower is sent the very same
// frame bytes, read back from the log, in that order. A restart recovers
// every record of every shard, with no gap.
func TestConcurrentPublishersBothSinksInSeqOrder(t *testing.T) {
	const shards, workers, perWorker = 2, 8, 300
	l, _, dir, addr := openSource(t, shards)

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
				recs := make([]wal.Record, n)
				mu.Lock()
				for j := range recs {
					next[shard]++
					recs[j] = mkRecord(next[shard], fmt.Sprintf("w%d-%d-%d", w, i, j), "value")
				}
				total += n
				mu.Unlock()
				for _, r := range recs {
					l.Append(shard, r)
				}
			}
		}(w)
	}
	wg.Wait()
	for sh := 0; sh < shards; sh++ {
		if err := l.TicketFor(sh, next[sh]).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != uint64(total) {
		t.Fatalf("wrote %d of %d appended records", st.Appends, total)
	}
	t.Logf("%d records, %d parked on the way", total, st.Parked)

	disk := walFrames(t, dir, shards) // before Close, which compacts the segments
	wire := wireFrames(t, addr, shards, total)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
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

	l2, err := wal.Open(dir, shards, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n, err := l2.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < shards; sh++ {
		if l2.LastSeq(sh) != next[sh] {
			t.Fatalf("shard %d recovered through seq %d, want %d", sh, l2.LastSeq(sh), next[sh])
		}
	}
	if n != total {
		t.Fatalf("recovered %d records, want all %d (every key is distinct)", n, total)
	}
}
