package repl

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/logrec"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

func newRT() *tle.Runtime {
	return tle.New(tle.PolicySTMCondVarNoQ, tle.Config{
		MemWords: 1 << 20,
		HTM:      htm.Config{EventAbortPerMillion: -1},
	})
}

const testShards = 4

func newFollowerStore(t *testing.T) (*tle.Runtime, *kvstore.Store) {
	t.Helper()
	r := newRT()
	return r, kvstore.New(r, kvstore.Config{Shards: testShards})
}

// waitCaughtUp polls until the follower's applied cursors reach the
// source's published tips on every shard.
func waitCaughtUp(t *testing.T, src *Source, fw *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		behind := false
		for i := 0; i < testShards; i++ {
			if fw.Applied(i) < src.Seq(i) {
				behind = true
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < testShards; i++ {
				t.Logf("shard %d: applied %d, source %d", i, fw.Applied(i), src.Seq(i))
			}
			t.Fatal("follower never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertConverged compares shard dumps between two stores.
func assertConverged(t *testing.T, pr *tle.Runtime, ps *kvstore.Store, fr *tle.Runtime, fs *kvstore.Store) {
	t.Helper()
	pth, fth := pr.NewThread(), fr.NewThread()
	defer pth.Release()
	defer fth.Release()
	for i := 0; i < testShards; i++ {
		pd, err := ps.DumpShard(pth, i)
		if err != nil {
			t.Fatalf("primary dump shard %d: %v", i, err)
		}
		fd, err := fs.DumpShard(fth, i)
		if err != nil {
			t.Fatalf("follower dump shard %d: %v", i, err)
		}
		if !bytes.Equal(pd, fd) {
			t.Fatalf("shard %d dumps differ: primary %d bytes, follower %d bytes", i, len(pd), len(fd))
		}
	}
}

// TestStreamConverges drives a concurrent mixed workload through a tapped
// primary and asserts the follower converges to byte-identical shards.
func TestStreamConverges(t *testing.T) {
	pr, ps, _, src, addr := newDurablePrimary(t, wal.Options{})
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()

	const workers, opsEach, keyspace = 4, 400, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := pr.NewThread()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				key := []byte(fmt.Sprintf("key:%d", rng.Intn(keyspace)))
				switch rng.Intn(10) {
				case 0:
					if _, err := ps.Delete(th, key); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				default:
					val := []byte(fmt.Sprintf("w%d-i%d", w, i))
					if err := ps.SetItem(th, key, val, uint32(i)); err != nil {
						t.Errorf("set: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	waitCaughtUp(t, src, fw)
	assertConverged(t, pr, ps, fr, fs)

	fw.Stop()
	src.Close(time.Second)
}

// TestFollowerResumesFromCursor kills a follower mid-stream and brings up
// a replacement seeded with the dead follower's applied cursors over the
// same (already-applied) store — modeling a restart with durable state. It
// must resume from the cursor (no duplicate application: CAS tokens would
// diverge and the dump comparison would catch it) and converge.
func TestFollowerResumesFromCursor(t *testing.T) {
	pr, ps, _, src, addr := newDurablePrimary(t, wal.Options{})
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, addr, nil)
	fw.Start()

	th := pr.NewThread()
	write := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key := []byte(fmt.Sprintf("key:%d", i%50))
			if err := ps.SetItem(th, key, []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
	}
	write(0, 300)
	waitCaughtUp(t, src, fw)
	fw.Stop()

	cursors := make([]uint64, testShards)
	for i := range cursors {
		cursors[i] = fw.Applied(i)
	}
	write(300, 600)

	fw2 := NewFollower(fr, fs, addr, cursors)
	fw2.Start()
	waitCaughtUp(t, src, fw2)
	assertConverged(t, pr, ps, fr, fs)
	if got := fw2.Applied(0) + fw2.Applied(1) + fw2.Applied(2) + fw2.Applied(3); got <= cursors[0]+cursors[1]+cursors[2]+cursors[3] {
		t.Fatalf("resumed follower applied nothing past its cursors (%d)", got)
	}

	th.Release()
	fw2.Stop()
	src.Close(time.Second)
}

// TestHandshakeRejectsStrangers: cursors below the source's retained base
// (would need a snapshot) or ahead of its published tip (a different
// history) must be refused with an ERR line.
func TestHandshakeRejectsStrangers(t *testing.T) {
	base := []uint64{5, 5, 5, 5}
	src := NewSource(testShards, base)
	addr, err := src.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close(time.Second)

	for _, hs := range []string{
		Protocol + " 4 0 0 0 0\r\n", // below base
		Protocol + " 4 9 5 5 5\r\n", // ahead of published tip (tip == base here)
		Protocol + " 2 5 5\r\n",     // wrong shard count
		"REPL v1 4 5 5 5 5\r\n",     // the IEEE-framed protocol, at the legal base
		"HELLO\r\n",                 // not a handshake
	} {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte(hs)); err != nil {
			t.Fatal(err)
		}
		line, err := readLine(newConnReader(c))
		if err != nil {
			t.Fatalf("%q: read: %v", hs, err)
		}
		if len(line) < 3 || line[:3] != "ERR" {
			t.Fatalf("handshake %q: got %q, want ERR", hs, line)
		}
		c.Close()
	}

	// The exact-base handshake is the legal resume point and must succeed.
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte(Protocol + " 4 5 5 5 5\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := readLine(newConnReader(c))
	if err != nil {
		t.Fatal(err)
	}
	if line != "OK 4" {
		t.Fatalf("legal handshake: got %q, want OK 4", line)
	}
}

// statLine returns the value of one of the follower's stats lines.
func statLine(fw *Follower, name string) string {
	for _, kv := range fw.StatLines() {
		if kv[0] == name {
			return kv[1]
		}
	}
	return ""
}

// TestFollowerDialsBeforeServe: a follower that dials a primary whose
// listener is bound but not yet served (the primary is still replaying its
// log) waits in the accept queue and attaches once Serve starts, with no
// failed dial and no reconnect. A follower dialing a port nobody listens on
// counts its failed dials.
func TestFollowerDialsBeforeServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fr, fs := newFollowerStore(t)
	fw := NewFollower(fr, fs, ln.Addr().String(), nil)
	fw.Start()
	defer fw.Stop()

	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	dr, ds := newFollowerStore(t)
	lost := NewFollower(dr, ds, dead.Addr().String(), nil)
	lost.Start()
	defer lost.Stop()

	time.Sleep(200 * time.Millisecond) // several backoff steps, had a dial been refused
	pr, ps := newFollowerStore(t)
	pl := openStoreLog(t, pr, ps, t.TempDir(), wal.Options{})
	defer pl.Close()
	src := NewSource(ps.ShardCount(), logTail(pl))
	ps.AttachTap(src)
	src.Serve(ln)
	defer src.Close(time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for statLine(fw, "repl_connected") != "true" {
		if time.Now().After(deadline) {
			t.Fatalf("follower never connected; dial failures %s", statLine(fw, "repl_dial_failures"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if f, r := statLine(fw, "repl_dial_failures"), statLine(fw, "repl_reconnects"); f != "0" || r != "0" {
		t.Fatalf("repl_dial_failures %s, repl_reconnects %s; want 0, 0", f, r)
	}
	if f := statLine(lost, "repl_dial_failures"); f == "0" || f == "" {
		t.Fatalf("a follower of a closed port reports %q failed dials", f)
	}
	th := pr.NewThread()
	defer th.Release()
	if err := ps.Set(th, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, src, fw)
	assertConverged(t, pr, ps, fr, fs)
}

// TestFollowerCatchesUpFromPublish keeps the shape of the benchmark's
// log-layer probe: records Published to a source with no log, which keeps
// them in memory, catch a follower up, those published before it
// connected and those published after.
func TestFollowerCatchesUpFromPublish(t *testing.T) {
	fr, fs := newFollowerStore(t)
	src := NewSource(fs.ShardCount(), nil)
	seq := make([]uint64, fs.ShardCount())
	publish := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			key := []byte(fmt.Sprintf("key:%d", i%50))
			sh := fs.ShardFor(key)
			seq[sh]++
			src.Publish(sh, logrec.Record{Seq: seq[sh], Op: logrec.OpSet, Key: key, Val: []byte(fmt.Sprintf("v%d", i))})
		}
	}
	publish(0, 200)
	addr, err := src.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close(time.Second)
	fw := NewFollower(fr, fs, addr.String(), nil)
	fw.Start()
	defer fw.Stop()
	waitCaughtUp(t, src, fw)
	publish(200, 300)
	waitCaughtUp(t, src, fw)
	if got := statLine(fw, "repl_applied_records"); got != "300" {
		t.Fatalf("follower applied %s records, want 300", got)
	}
	th := fr.NewThread()
	defer th.Release()
	for i := 250; i < 300; i++ {
		if v, ok, err := fs.Get(th, []byte(fmt.Sprintf("key:%d", i%50))); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key:%d = %q, %v, %v; want v%d", i%50, v, ok, err, i)
		}
	}
}
