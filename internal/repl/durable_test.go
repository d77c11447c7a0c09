package repl

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/logrec"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// openStoreLog opens and recovers a WAL in dir into store and attaches it.
func openStoreLog(t *testing.T, r *tle.Runtime, store *kvstore.Store, dir string, opts wal.Options) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, store.ShardCount(), opts)
	if err != nil {
		t.Fatal(err)
	}
	th := r.NewThread()
	_, err = store.Recover(th, l)
	th.Release()
	if err == nil {
		err = store.AttachWAL(l)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// logTail is a log's recovered tail, a follower's or a source's cursors.
func logTail(l *wal.Log) []uint64 {
	t := make([]uint64, l.Shards())
	for i := range t {
		t[i] = l.LastSeq(i)
	}
	return t
}

// newDurablePrimary builds a store that logs to a fresh WAL, with a Source
// attached after it (AttachTap hands the source the log) and listening.
// The source closes before the log at cleanup.
func newDurablePrimary(t *testing.T, opts wal.Options) (*tle.Runtime, *kvstore.Store, *wal.Log, *Source, string) {
	t.Helper()
	r := newRT()
	s := kvstore.New(r, kvstore.Config{Shards: testShards})
	l := openStoreLog(t, r, s, t.TempDir(), opts)
	t.Cleanup(func() { l.Close() })
	src := NewSource(s.ShardCount(), logTail(l))
	s.AttachTap(src)
	addr, err := src.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close(time.Second) })
	return r, s, l, src, addr.String()
}

// writeKeys sets keys lo..hi-1 (modulo 50) on the primary.
func writeKeys(t *testing.T, r *tle.Runtime, s *kvstore.Store, lo, hi int) {
	t.Helper()
	th := r.NewThread()
	defer th.Release()
	for i := lo; i < hi; i++ {
		if err := s.SetItem(th, []byte(fmt.Sprintf("key:%d", i%50)), []byte(fmt.Sprintf("v%d", i)), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// waitDurable waits until the log has fsynced everything published.
func waitDurable(t *testing.T, l *wal.Log, src *Source) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		durable := true
		for i := 0; i < testShards; i++ {
			durable = durable && l.Durable(i) == src.Seq(i)
		}
		if durable {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the log never fsynced everything published")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDropped waits until the source has dropped every follower: a
// subscription it has not yet seen close could still send it records.
func waitDropped(t *testing.T, src *Source) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for statOf(src, "repl_followers") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the source never dropped a stopped follower")
		}
		time.Sleep(time.Millisecond)
	}
}

// statOf reads one numeric field of the source's stats.
func statOf(src *Source, name string) uint64 {
	for _, kv := range src.StatLines() {
		if kv[0] == name {
			n, _ := strconv.ParseUint(kv[1], 10, 64)
			return n
		}
	}
	return 0
}

// TestSourceShipsOnlyDurable holds the WAL's syncer in a long fsync window
// while records are published: the follower must receive nothing past the
// durable watermark, and converge once the fsync lands.
func TestSourceShipsOnlyDurable(t *testing.T) {
	pr, ps, l, src, addr := newDurablePrimary(t, wal.Options{FsyncWindow: 300 * time.Millisecond})
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()
	defer fw.Stop()

	writeKeys(t, pr, ps, 0, 200)
	held := false
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < testShards; i++ {
			applied := fw.Applied(i)
			durable := l.Durable(i)
			if applied > durable {
				t.Fatalf("shard %d: follower applied seq %d, the log has fsynced only %d", i, applied, durable)
			}
			held = held || durable < src.Seq(i)
		}
		time.Sleep(time.Millisecond)
	}
	if !held {
		t.Fatal("the fsync landed before the first check: nothing was ever held back")
	}
	waitCaughtUp(t, src, fw)
	assertConverged(t, pr, ps, fr, fs)
}

// TestSourceMemoryBounded publishes 64 MiB of 2 KiB records through a
// logged primary to a follower that keeps up: the source must hold no
// more than a few fsync windows' worth, not the stream (with a log it
// holds none), and Emit must not allocate.
func TestSourceMemoryBounded(t *testing.T) {
	pr, ps, l, src, addr := newDurablePrimary(t, wal.Options{})
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()
	defer fw.Stop()

	const total, chunk = 64 << 20, 256
	val := bytes.Repeat([]byte("v"), 2048)
	th := pr.NewThread()
	var maxLive, maxCap int
	for n := 0; n < total/len(val); n += chunk {
		for i := n; i < n+chunk; i++ {
			if err := ps.SetItem(th, []byte(fmt.Sprintf("key:%d", i%512)), val, 0); err != nil {
				t.Fatal(err)
			}
		}
		// A client's ack waits for the fsync: so does the next chunk.
		for i := 0; i < testShards; i++ {
			if err := l.TicketFor(i, src.Seq(i)).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		src.mu.Lock()
		live, c := 0, 0
		for i := range src.sh {
			live += len(src.sh[i].buf)
			c += cap(src.sh[i].buf)
		}
		src.mu.Unlock()
		maxLive, maxCap = max(maxLive, live), max(maxCap, c)
	}
	th.Release()
	if maxLive >= 8<<20 || maxCap >= 8<<20 {
		t.Fatalf("the source held up to %d bytes of frames in buffers of %d bytes; want both under 8 MiB", maxLive, maxCap)
	}
	waitCaughtUp(t, src, fw)
	assertConverged(t, pr, ps, fr, fs)
	t.Logf("64 MiB published: at most %d bytes of frames retained, %d bytes of buffer", maxLive, maxCap)

	// Emit plus the fsync callback that wakes the senders, in steady state.
	// The frame's own seq is not the source's business: the log holds it.
	ol, err := wal.Open(t.TempDir(), 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ol.Recover(nil); err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	one := NewSource(1, nil)
	one.AttachLog(ol)
	frame := logrec.AppendRecord(nil, logrec.Record{Seq: 1, Op: logrec.OpSet, Key: []byte("key"), Val: val})
	durable := []uint64{0}
	emit := func() {
		durable[0]++
		one.Emit(0, durable[0], 1, frame)
		one.synced(durable)
	}
	for i := 0; i < 100; i++ {
		emit()
	}
	if a := testing.AllocsPerRun(1000, emit); a != 0 {
		t.Fatalf("Emit allocated %.1f times per record", a)
	}
}

// followerCursors reads a follower's applied cursors.
func followerCursors(fw *Follower) []uint64 {
	c := make([]uint64, testShards)
	for i := range c {
		c[i] = fw.Applied(i)
	}
	return c
}

// TestFollowerCatchesUpFromLog: a follower is served from the primary's
// WAL whatever its cursor, reading only the records past it, and ends
// byte-identical. The small segments put a reconnecting follower's cursor
// several segments into the log.
func TestFollowerCatchesUpFromLog(t *testing.T) {
	opts := wal.Options{SegmentBytes: 4 << 10}
	t.Run("fresh-follower", func(t *testing.T) {
		pr, ps, l, src, addr := newDurablePrimary(t, opts)
		writeKeys(t, pr, ps, 0, 300)
		waitDurable(t, l, src)
		fr, fs := newFollowerStore(t)
		fw := NewFollower(fr, fs, addr, nil)
		fw.Start()
		defer fw.Stop()
		waitCaughtUp(t, src, fw)
		assertConverged(t, pr, ps, fr, fs)
		if got := statOf(src, "repl_log_catchup_records"); got != 300 {
			t.Fatalf("%d records sent from the log, want all 300", got)
		}
	})
	t.Run("link-cut", func(t *testing.T) {
		pr, ps, l, src, addr := newDurablePrimary(t, opts)
		fr, fs := newFollowerStore(t)
		fw := NewFollower(fr, fs, addr, nil)
		fw.Start()
		writeKeys(t, pr, ps, 0, 300)
		waitCaughtUp(t, src, fw)
		fw.Stop()
		waitDropped(t, src)
		sent := statOf(src, "repl_log_catchup_records")
		writeKeys(t, pr, ps, 300, 600)
		waitDurable(t, l, src)
		fw2 := NewFollower(fr, fs, addr, followerCursors(fw))
		fw2.Start()
		defer fw2.Stop()
		waitCaughtUp(t, src, fw2)
		assertConverged(t, pr, ps, fr, fs)
		if got := statOf(src, "repl_log_catchup_records") - sent; got != 300 {
			t.Fatalf("%d records sent after the reconnect, want the 300 written while the link was cut", got)
		}
	})
	t.Run("follower-restarted-from-its-wal", func(t *testing.T) {
		pr, ps, l, src, addr := newDurablePrimary(t, opts)
		fdir := t.TempDir()
		fr, fs := newFollowerStore(t)
		fl := openStoreLog(t, fr, fs, fdir, wal.Options{})
		fw := NewFollower(fr, fs, addr, nil)
		fw.Start()
		writeKeys(t, pr, ps, 0, 300)
		waitCaughtUp(t, src, fw)
		fw.Stop()
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		waitDropped(t, src)
		sent := statOf(src, "repl_log_catchup_records")
		writeKeys(t, pr, ps, 300, 600)
		waitDurable(t, l, src)

		fr2, fs2 := newFollowerStore(t)
		fl2 := openStoreLog(t, fr2, fs2, fdir, wal.Options{})
		defer fl2.Close()

		fw2 := NewFollower(fr2, fs2, addr, logTail(fl2))
		fw2.Start()
		defer fw2.Stop()
		waitCaughtUp(t, src, fw2)
		assertConverged(t, pr, ps, fr2, fs2)
		if got := statOf(src, "repl_log_catchup_records") - sent; got != 300 {
			t.Fatalf("%d records sent after the restart, want the 300 written while the follower was down", got)
		}
	})
}

// TestFollowerCatchesUpUnderSteadyWrites reconnects a follower thousands
// of records behind while the primary keeps writing: before the writes
// stop it must reach the tips the primary had published when it
// reconnected, and it ends byte-identical.
func TestFollowerCatchesUpUnderSteadyWrites(t *testing.T) {
	pr, ps, l, src, addr := newDurablePrimary(t, wal.Options{SegmentBytes: 64 << 10})
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()
	writeKeys(t, pr, ps, 0, 300)
	waitCaughtUp(t, src, fw)
	fw.Stop()
	writeKeys(t, pr, ps, 300, 5000)

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		th := pr.NewThread()
		defer th.Release()
		for i := 5000; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := ps.SetItem(th, []byte(fmt.Sprintf("key:%d", i%50)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
				done <- err
				return
			}
			if i%10 == 0 { // a client's ack waits for the fsync
				for sh := 0; sh < testShards; sh++ {
					if err := l.TicketFor(sh, src.Seq(sh)).Wait(); err != nil {
						done <- err
						return
					}
				}
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	fw2 := NewFollower(fr, fs, addr, followerCursors(fw))
	fw2.Start()
	defer fw2.Stop()
	mark := make([]uint64, testShards)
	for i := range mark {
		mark[i] = src.Seq(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		reached := true
		for i, m := range mark {
			reached = reached && fw2.Applied(i) >= m
		}
		if reached {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("in 10 s of writes the follower reached %v, short of the tips %v it reconnected under", followerCursors(fw2), mark)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, src, fw2)
	assertConverged(t, pr, ps, fr, fs)
}

// TestSourceStatsMove: repl_log_catchup_records counts the records
// followers were sent from the log.
func TestSourceStatsMove(t *testing.T) {
	pr, ps, l, src, addr := newDurablePrimary(t, wal.Options{})
	writeKeys(t, pr, ps, 0, 100)
	waitDurable(t, l, src)
	if got := statOf(src, "repl_log_catchup_records"); got != 0 {
		t.Fatalf("%d records sent from the log before any follower", got)
	}
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()
	defer fw.Stop()
	waitCaughtUp(t, src, fw)
	if got := statOf(src, "repl_log_catchup_records"); got != 100 {
		t.Fatalf("%d records sent from the log, want 100", got)
	}
	writeKeys(t, pr, ps, 100, 150)
	waitCaughtUp(t, src, fw)
	if got := statOf(src, "repl_log_catchup_records"); got != 150 {
		t.Fatalf("%d records sent from the log, want 150", got)
	}
}
