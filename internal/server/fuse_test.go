package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/server/client"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// dialRaw opens a raw protocol connection for tests that need exact
// control of wire framing (noreply, hand-built pipelines).
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

func readReply(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

// TestFusedNoReplyRuns pins fusion across noreply mutations: a pipelined
// run of noreply sets produces no responses at all, the next replying
// command answers immediately, and every noreply write is applied.
func TestFusedNoReplyRuns(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, br := dialRaw(t, addr)

	var b strings.Builder
	const n = 16
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "set nr%d 0 0 2 noreply\r\nv%d\r\n", i, i%10)
	}
	b.WriteString("get nr7\r\n")
	if _, err := c.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	// The one and only response must be the get's VALUE block: any
	// STORED leaking from a fused noreply op would land here first.
	if got := readReply(t, br); got != "VALUE nr7 0 2" {
		t.Fatalf("first reply = %q, want the get header", got)
	}
	if got := readReply(t, br); got != "v7" {
		t.Fatalf("value = %q", got)
	}
	if got := readReply(t, br); got != "END" {
		t.Fatalf("trailer = %q", got)
	}

	// Every noreply set must have applied.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		it, ok, err := cl.Get(fmt.Sprintf("nr%d", i))
		if err != nil || !ok || string(it.Value) != fmt.Sprintf("v%d", i%10) {
			t.Fatalf("nr%d = %+v, %v, %v", i, it, ok, err)
		}
	}
}

// TestFusedMixedPipelineOrder pins response ordering and per-op status
// isolation through the mutation path: a pipelined burst mixing stores,
// deletes, incrs, misses and interleaved gets must answer strictly in
// order with each op's own status — fused into one transaction (stm-cv),
// and one lock at a time on the lock baseline with a WAL, where every acked
// reply must also be in the recovered store.
func TestFusedMixedPipelineOrder(t *testing.T) {
	req := "set k1 0 0 1\r\na\r\n" +
		"add k1 0 0 1\r\nb\r\n" + // exists: NOT_STORED
		"set ctr 0 0 1\r\n5\r\n" +
		"incr ctr 10\r\n" +
		"delete k1\r\n" +
		"delete k1\r\n" + // now a miss
		"get ctr\r\n" +
		"replace missing 0 0 1\r\nz\r\n" +
		"decr ctr 100\r\n"
	want := []string{
		"STORED", "NOT_STORED", "STORED", "15",
		"DELETED", "NOT_FOUND",
		"VALUE ctr 0 2", "15", "END",
		"NOT_STORED", "0",
	}
	burst := func(t *testing.T, addr string) {
		c, br := dialRaw(t, addr)
		if _, err := c.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := readReply(t, br); got != w {
				t.Fatalf("reply %d = %q, want %q", i, got, w)
			}
		}
	}
	t.Run("stm-cv", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		burst(t, addr)
	})
	t.Run("pthread-wal", func(t *testing.T) {
		dir := t.TempDir()
		open := func() (*tle.Runtime, *kvstore.Store, *wal.Log) {
			r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20})
			store := kvstore.New(r, kvstore.Config{Shards: 4})
			l, err := wal.Open(dir, store.ShardCount(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			th := r.NewThread()
			defer th.Release()
			if _, err := l.Recover(func(_ int, rec wal.Record) error { return store.Apply(th, rec) }); err != nil {
				t.Fatal(err)
			}
			if err := store.AttachWAL(l); err != nil {
				t.Fatal(err)
			}
			return r, store, l
		}
		r, store, l := open()
		srv := New(r, store, Config{WAL: l})
		addr, err := srv.Start()
		if err != nil {
			t.Fatal(err)
		}
		burst(t, addr.String())
		srv.Shutdown(5 * time.Second)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		r2, store2, l2 := open()
		defer l2.Close()
		th := r2.NewThread()
		defer th.Release()
		if v, ok, err := store2.Get(th, []byte("ctr")); err != nil || !ok || string(v) != "0" {
			t.Fatalf("recovered ctr = %q, %v, %v; want the acked 0", v, ok, err)
		}
		for _, k := range []string{"k1", "missing"} {
			if _, ok, _ := store2.Get(th, []byte(k)); ok {
				t.Fatalf("recovered store holds %q, which no acked reply left behind", k)
			}
		}
	})
}

// TestFusionCountersAdvance drives enough pipelined mutation bursts at
// one connection that the executor must drain multi-op batches, then
// checks the stats verb exposes the fusion and grace counters.
func TestFusionCountersAdvance(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const bursts, width = 50, 16
	for b := 0; b < bursts; b++ {
		for i := 0; i < width; i++ {
			if err := cl.SendSet(fmt.Sprintf("f%d", i), []byte("x"), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < width; i++ {
			rsp, err := cl.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !rsp.Stored() && !rsp.Busy() {
				t.Fatalf("burst %d op %d: %+v", b, i, rsp)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fused_batches", "fused_ops", "quiesces", "shared_grace", "scans_avoided"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q", k)
		}
	}
	fb, _ := strconv.ParseUint(st["fused_batches"], 10, 64)
	fo, _ := strconv.ParseUint(st["fused_ops"], 10, 64)
	if fb == 0 || fo < 2*fb {
		t.Fatalf("fusion never fired across %d pipelined bursts: fused_batches=%d fused_ops=%d",
			bursts, fb, fo)
	}
	t.Logf("fused_batches=%d fused_ops=%d (mean width %.1f)", fb, fo, float64(fo)/float64(fb))
}

// TestStatsReportParkedFrees runs tleserved's runtime shape (hybrid,
// DeferredReclaim, stm-cv-noq) and overwrites one key while a transaction
// elsewhere stays open, so no freed item can be reclaimed: stats must
// count the first two freeing commits as grace periods (the batch sealed
// at once and the one collecting behind it), the rest as shared without a
// scan, and every replaced item in reclaim_parked — until the transaction
// ends, when the next overwrite frees them all.
func TestStatsReportParkedFrees(t *testing.T) {
	r := tle.New(tle.PolicySTMCondVarNoQ, tle.Config{MemWords: 1 << 20, Hybrid: true, DeferredReclaim: true})
	srv := New(r, kvstore.New(r, kvstore.Config{Shards: 4}), Config{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	cl, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stat := func(want map[string]uint64) {
		t.Helper()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if got, err := strconv.ParseUint(st[k], 10, 64); err != nil || got != v {
				t.Errorf("stats %s = %q, want %d", k, st[k], v)
			}
		}
	}
	set := func() {
		t.Helper()
		if err := cl.Set("k", []byte("value"), 0); err != nil {
			t.Fatal(err)
		}
	}
	set()

	holder := r.NewThread()
	inside, leave, left := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(left)
		defer holder.Release()
		var once sync.Once
		if err := r.Engine().Atomic(holder, func(tx tm.Tx) error {
			tx.NoQuiesce() // its own commit takes no grace period
			once.Do(func() { close(inside) })
			<-leave
			return nil
		}); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-inside
	const overwrites = 10
	for i := 0; i < overwrites; i++ {
		set()
	}
	stat(map[string]uint64{"quiesces": 2, "shared_grace": overwrites - 2, "scans_avoided": overwrites - 2, "reclaim_parked": overwrites})

	close(leave)
	<-left
	set()
	stat(map[string]uint64{"quiesces": 2, "shared_grace": overwrites - 1, "scans_avoided": overwrites - 1, "reclaim_parked": 0})
}
