package server

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gotle/internal/chaos"
	"gotle/internal/htm"
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

// TestPipelinedNoReplyRuns pins runs of noreply mutations: a pipelined run
// of noreply sets produces no responses at all, the next replying command
// answers immediately, and every noreply write is applied.
func TestPipelinedNoReplyRuns(t *testing.T) {
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
	// STORED leaking from a noreply op in the run would land here first.
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

// TestPipelinedMixedOrder pins response ordering and per-op status
// isolation through the mutation path: a pipelined burst mixing stores,
// deletes, incrs, misses and interleaved gets must answer strictly in
// order with each op's own status — elided (stm-cv), and on the lock
// baseline with a WAL, where every acked reply must also be in the
// recovered store.
func TestPipelinedMixedOrder(t *testing.T) {
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
			if _, err := store.Recover(th, l); err != nil {
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

// TestMutationRunCountersAdvance drives pipelined set bursts at one
// connection, then checks that cmd_set counts exactly the sets that ran and
// that the stats verb exposes the grace counters.
func TestMutationRunCountersAdvance(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const bursts, width = 50, 16
	stored := 0
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
			switch {
			case rsp.Stored():
				stored++
			case !rsp.Busy():
				t.Fatalf("burst %d op %d: %+v", b, i, rsp)
			}
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"quiesces", "shared_grace"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q", k)
		}
	}
	if got := st["cmd_set"]; got != strconv.Itoa(stored) {
		t.Fatalf("cmd_set = %s, want the %d STORED replies", got, stored)
	}
}

// TestReadOnlyRefusesMutations pins a follower's front end: in a pipelined
// burst, every mutating verb answers "SERVER_ERROR readonly" (a noreply one
// nothing) in its place among the gets and version, and none of them
// reaches a shard: the store stays empty and the only commits are the gets'.
func TestReadOnlyRefusesMutations(t *testing.T) {
	_, addr := startServer(t, Config{ReadOnly: true})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	commits := func() int {
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["curr_items"] != "0" {
			t.Fatalf("curr_items = %s on a read-only server", st["curr_items"])
		}
		n, err := strconv.Atoi(st["tm_commits"])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	const gets = 4 // keys looked up below, one read-only commit each
	req := "set a 0 0 1\r\nx\r\n" +
		"get a\r\n" +
		"add b 0 0 1 noreply\r\ny\r\n" +
		"replace a 0 0 1\r\nz\r\n" +
		"version\r\n" +
		"cas a 0 0 1 7\r\nw\r\n" +
		"delete a\r\n" +
		"gets a b\r\n" +
		"incr a 1\r\n" +
		"decr a 1\r\n" +
		"get b\r\n"
	const ro = "SERVER_ERROR readonly"
	want := []string{ro, "END", ro, "VERSION " + Config{}.withDefaults().Version, ro, ro, "END", ro, ro, "END"}

	before := commits()
	c, br := dialRaw(t, addr)
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := readReply(t, br); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
	// Each stats command's own reads commit too: the third call measures
	// them, so the burst's share of the second call's rise is what is left.
	after := commits()
	statsOwn := commits() - after
	if got := after - before - statsOwn; got != gets {
		t.Fatalf("tm_commits rose by %d over the burst, want the %d gets'", got, gets)
	}
}

// TestStatsTMCountersAdvance checks the engine-wide transaction counters in
// stats: every key is present, and sets under an HTM runtime with seeded
// forced conflict and capacity aborts (each attempt that exhausts its retry
// budget runs serially) advance all five. The simulated heap's gauges are
// there too: its size stays, and the sets' items raise its live bytes.
func TestStatsTMCountersAdvance(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1, Rates: chaos.Rates{chaos.HTMConflict: 20000, chaos.HTMCapacity: 20000}})
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: 1 << 20, HTM: htm.Config{EventAbortPerMillion: -1}, FaultInjector: inj})
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
	keys := []string{"tm_starts", "tm_commits", "tm_conflict_aborts", "tm_capacity_aborts", "tm_serial_runs",
		"heap_bytes", "heap_used_bytes", "heap_live_bytes"}
	read := func() map[string]uint64 {
		t.Helper()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, k := range keys {
			v, err := strconv.ParseUint(st[k], 10, 64)
			if err != nil {
				t.Fatalf("stats %s = %q: %v", k, st[k], err)
			}
			out[k] = v
		}
		return out
	}
	before := read()
	const sets = 200
	for i := 0; i < sets; i++ {
		if err := cl.Set(fmt.Sprintf("tm%d", i%50), []byte(strings.Repeat("v", 100)), 0); err != nil {
			t.Fatal(err)
		}
	}
	after := read()
	if after["heap_bytes"] != 8<<20 || before["heap_bytes"] != 8<<20 {
		t.Errorf("heap_bytes %d then %d, want the 1<<20-word heap's %d", before["heap_bytes"], after["heap_bytes"], 8<<20)
	}
	if after["heap_live_bytes"] > after["heap_used_bytes"] || after["heap_used_bytes"] > after["heap_bytes"] {
		t.Errorf("heap gauges out of order: live %d, used %d, size %d", after["heap_live_bytes"], after["heap_used_bytes"], after["heap_bytes"])
	}
	for _, k := range keys {
		if k == "heap_bytes" || k == "heap_used_bytes" {
			continue
		}
		if after[k] <= before[k] {
			t.Errorf("stats %s did not advance over %d sets: %d -> %d", k, sets, before[k], after[k])
		}
	}
	if d := after["tm_commits"] - before["tm_commits"]; d < sets {
		t.Errorf("tm_commits advanced %d over %d sets", d, sets)
	}
	if after["tm_starts"] < after["tm_commits"]+after["tm_conflict_aborts"]+after["tm_capacity_aborts"] {
		t.Errorf("tm_starts %d below commits + aborts: %v", after["tm_starts"], after)
	}
}

// TestStatsCountOnlyTraffic serves a store recovered from a log: the
// replay's serial sections happened before the server existed, so the tm_
// counters start at zero and move with the first set, and stats reports
// the replay itself as wal_recovered and recover_us.
func TestStatsCountOnlyTraffic(t *testing.T) {
	const n = 500
	dir := t.TempDir()
	open := func() (*tle.Runtime, *kvstore.Store, *wal.Log, int) {
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: 1 << 20, Hybrid: true, HTM: htm.Config{EventAbortPerMillion: -1}})
		store := kvstore.New(r, kvstore.Config{Shards: 4})
		l, err := wal.Open(dir, store.ShardCount(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		th := r.NewThread()
		defer th.Release()
		got, err := store.Recover(th, l)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		return r, store, l, got
	}
	r, store, l, _ := open()
	th := r.NewThread()
	for i := 0; i < n; i++ {
		if err := store.Set(th, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	th.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, store, l, got := open()
	defer l.Close()
	if got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	srv := New(r, store, Config{WAL: l})
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
	read := func() map[string]uint64 {
		t.Helper()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, k := range []string{"tm_commits", "tm_serial_runs", "wal_recovered", "recover_us"} {
			if out[k], err = strconv.ParseUint(st[k], 10, 64); err != nil {
				t.Fatalf("stats %s = %q: %v", k, st[k], err)
			}
		}
		return out
	}
	st := read()
	if st["tm_commits"] != 0 || st["tm_serial_runs"] != 0 {
		t.Errorf("tm_commits %d, tm_serial_runs %d before any traffic, after recovering %d records",
			st["tm_commits"], st["tm_serial_runs"], n)
	}
	if st["wal_recovered"] != n || st["recover_us"] == 0 {
		t.Errorf("wal_recovered %d, recover_us %d; want %d and a duration", st["wal_recovered"], st["recover_us"], n)
	}
	if err := cl.Set("after", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if v := read()["tm_commits"]; v < 1 {
		t.Errorf("tm_commits = %d after one set", v)
	}
}

// TestStatsShowRestartCost reads what a restart replays from stats: after
// a clean restart, the live keys a Close compacted into the base
// (wal_recovered = wal_base_records, wal_compactions 1); after a restart
// from a crash image (the directory copied while the log was open), the
// base plus the records after it; and after that run's Close and a
// restart, the live set again, from the history's second compaction.
func TestStatsShowRestartCost(t *testing.T) {
	dir := t.TempDir()
	type node struct {
		l  *wal.Log
		cl *client.Client
	}
	start := func(dir string) node {
		r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20})
		store := kvstore.New(r, kvstore.Config{Shards: 4})
		l, err := wal.Open(dir, store.ShardCount(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		th := r.NewThread()
		defer th.Release()
		if _, err := store.Recover(th, l); err != nil {
			t.Fatal(err)
		}
		if err := store.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		srv := New(r, store, Config{WAL: l})
		addr, err := srv.Start()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := client.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cl.Close()
			srv.Shutdown(5 * time.Second)
			l.Close()
		})
		return node{l, cl}
	}
	stat := func(n node, k string) uint64 {
		t.Helper()
		st, err := n.cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseUint(st[k], 10, 64)
		if err != nil {
			t.Fatalf("stats %s = %q: %v", k, st[k], err)
		}
		return v
	}
	// 40 keys set five times each, then every fourth deleted: 30 live.
	load := func(n node, tag string) {
		for i := 0; i < 200; i++ {
			if err := n.cl.Set(fmt.Sprintf("k%d", i%40), []byte(tag), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i += 4 {
			if _, err := n.cl.Delete(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := start(dir)
	load(n, "a")
	if err := n.l.Close(); err != nil {
		t.Fatal(err)
	}
	n = start(dir)
	if r, b, c := stat(n, "wal_recovered"), stat(n, "wal_base_records"), stat(n, "wal_compactions"); r != 30 || b != 30 || c != 1 {
		t.Fatalf("after a clean restart: wal_recovered %d, wal_base_records %d, wal_compactions %d; want 30, 30, 1", r, b, c)
	}
	load(n, "b")
	crash := filepath.Join(t.TempDir(), "crash")
	if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	n = start(crash)
	if r, b, c := stat(n, "wal_recovered"), stat(n, "wal_base_records"), stat(n, "wal_compactions"); r != 30+210 || b != 30 || c != 1 {
		t.Fatalf("after a crash: wal_recovered %d, wal_base_records %d, wal_compactions %d; want the base's 30 and the 210 records after it, 30, 1", r, b, c)
	}
	if err := n.l.Close(); err != nil {
		t.Fatal(err)
	}
	n = start(crash)
	if r, b, c := stat(n, "wal_recovered"), stat(n, "wal_base_records"), stat(n, "wal_compactions"); r != 30 || b != 30 || c != 2 {
		t.Fatalf("after the crashed run's Close: wal_recovered %d, wal_base_records %d, wal_compactions %d; want 30, 30, 2", r, b, c)
	}
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
	stat(map[string]uint64{"quiesces": 2, "shared_grace": overwrites - 2, "reclaim_parked": overwrites})

	close(leave)
	<-left
	set()
	stat(map[string]uint64{"quiesces": 2, "shared_grace": overwrites - 1, "reclaim_parked": 0})
}
