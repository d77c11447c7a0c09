package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/server/client"
	"gotle/internal/tle"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startServerWith(t, cfg, nil)
}

// startServerWith is startServer with the connDone hook set before the
// server serves.
func startServerWith(tb testing.TB, cfg Config, connDone func(*opPool)) (*Server, string) {
	tb.Helper()
	r := tle.New(tle.PolicySTMCondVar, tle.Config{
		MemWords: 1 << 20,
		Observe:  true,
		HTM:      htm.Config{EventAbortPerMillion: -1},
	})
	store := kvstore.New(r, kvstore.Config{Shards: 4})
	srv := New(r, store, cfg)
	srv.connDone = connDone
	addr, err := srv.Start()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv, addr.String()
}

func TestServerBasicVerbs(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, err := c.Version(); err != nil || !strings.Contains(v, "tleserved") {
		t.Fatalf("version = %q, %v", v, err)
	}
	if err := c.Set("greeting", []byte("hello"), 42); err != nil {
		t.Fatal(err)
	}
	it, ok, err := c.Get("greeting")
	if err != nil || !ok || string(it.Value) != "hello" || it.Flags != 42 {
		t.Fatalf("get = %+v, %v, %v", it, ok, err)
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("absent key found")
	}

	// add / replace semantics.
	if r, _ := c.Store("add", "greeting", []byte("x"), 0, 0); r.Status != "NOT_STORED" {
		t.Fatalf("add existing = %+v", r)
	}
	if r, _ := c.Store("add", "fresh", []byte("f"), 0, 0); !r.Stored() {
		t.Fatalf("add fresh = %+v", r)
	}
	if r, _ := c.Store("replace", "missing", []byte("x"), 0, 0); r.Status != "NOT_STORED" {
		t.Fatalf("replace missing = %+v", r)
	}

	// gets + cas round trip.
	items, err := c.Gets("greeting", "fresh", "absent")
	if err != nil || len(items) != 2 {
		t.Fatalf("gets = %+v, %v", items, err)
	}
	var casTok uint64
	for _, it := range items {
		if it.Key == "greeting" {
			casTok = it.CAS
		}
	}
	if casTok == 0 {
		t.Fatal("gets returned no cas token")
	}
	if r, _ := c.Store("cas", "greeting", []byte("swapped"), 0, casTok); !r.Stored() {
		t.Fatalf("cas fresh token = %+v", r)
	}
	if r, _ := c.Store("cas", "greeting", []byte("zzz"), 0, casTok); r.Status != "EXISTS" {
		t.Fatalf("cas stale token = %+v", r)
	}
	if r, _ := c.Store("cas", "nope", []byte("zzz"), 0, 1); r.Status != "NOT_FOUND" {
		t.Fatalf("cas missing = %+v", r)
	}

	// incr/decr.
	if err := c.Set("ctr", []byte("10"), 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Incr("ctr", 5, false); !ok || v != 15 {
		t.Fatalf("incr = %d, %v", v, ok)
	}
	if v, ok, _ := c.Incr("ctr", 100, true); !ok || v != 0 {
		t.Fatalf("decr floor = %d, %v", v, ok)
	}
	if _, ok, _ := c.Incr("greeting", 1, false); ok {
		t.Fatal("incr on non-numeric value reported ok")
	}

	// delete.
	if ok, _ := c.Delete("greeting"); !ok {
		t.Fatal("delete existing = false")
	}
	if ok, _ := c.Delete("greeting"); ok {
		t.Fatal("delete missing = true")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cmd_get", "cmd_set", "get_hits", "curr_items", "queue_depth", "shed_ops"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, st)
		}
	}
	// Exact, per key and per storage command sent above: 2 gets + a 3-key
	// gets (greeting twice and fresh hit, absent twice missed); 2 sets,
	// 2 adds, 1 replace, 3 cas.
	for k, want := range map[string]string{"cmd_get": "5", "cmd_set": "8", "get_hits": "3", "get_misses": "2"} {
		if st[k] != want {
			t.Fatalf("stats %s = %s, want %s", k, st[k], want)
		}
	}
}

// Pipelined requests must come back in order and stay consistent even
// when the per-connection queue sheds: a shed set means the key was never
// written, a stored set means it is readable.
func TestPipeliningOrderAndShedding(t *testing.T) {
	_, addr := startServer(t, Config{QueueDepth: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 400
	for i := 0; i < n; i++ {
		if err := c.SendSet(fmt.Sprintf("pk%d", i), []byte(fmt.Sprintf("pv%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	stored := make([]bool, n)
	shed := 0
	for i := 0; i < n; i++ {
		r, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		switch {
		case r.Stored():
			stored[i] = true
		case r.Busy():
			shed++
		default:
			t.Fatalf("set %d: unexpected reply %+v", i, r)
		}
	}
	t.Logf("pipelined %d sets, %d shed (queue depth 2)", n, shed)
	// Verify read-your-writes consistency for every response.
	for i := 0; i < n; i++ {
		it, ok, err := c.Get(fmt.Sprintf("pk%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if stored[i] && (!ok || string(it.Value) != fmt.Sprintf("pv%d", i)) {
			t.Fatalf("key pk%d: STORED but get = %q,%v", i, it.Value, ok)
		}
		if !stored[i] && ok {
			t.Fatalf("key pk%d: shed but present", i)
		}
	}
}

func TestConnectionCap(t *testing.T) {
	_, addr := startServer(t, Config{MaxConns: 1})
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Set("a", []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	// Second connection must be turned away with a busy error.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, _ := io.ReadAll(raw)
	if !strings.Contains(string(buf), "SERVER_ERROR busy") {
		t.Fatalf("over-cap connection got %q, want busy", buf)
	}
	// The first connection still works.
	if _, ok, err := c1.Get("a"); err != nil || !ok {
		t.Fatalf("existing conn broken after cap rejection: %v", err)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t, Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))

	// send writes one request and reads the reply lines it earns — by count,
	// not by whatever one Read returns: two lines may arrive in two segments.
	rd := bufio.NewReader(raw)
	send := func(s string, lines int) string {
		if _, err := io.WriteString(raw, s); err != nil {
			t.Fatal(err)
		}
		var got string
		for i := 0; i < lines; i++ {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("reply line %d of %d to %q: %v (have %q)", i+1, lines, s, err, got)
			}
			got += line
		}
		return got
	}
	if got := send("bogus\r\n", 1); !strings.HasPrefix(got, "ERROR") {
		t.Fatalf("unknown verb: %q", got)
	}
	if got := send("get\r\n", 1); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("get without key: %q", got)
	}
	if got := send("set k 0 0 abc\r\n", 1); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad bytes: %q", got)
	}
	// A bad chunk earns two lines: the refusal, then ERROR for the bytes
	// left over after the declared length.
	if got := send("set k 0 0 3\r\nabcd\r\n", 2); !strings.HasPrefix(got, "CLIENT_ERROR bad data chunk\r\nERROR") {
		t.Fatalf("bad chunk: %q", got)
	}
	// Oversized values are consumed and refused, not fatal.
	big := strings.Repeat("x", kvstore.MaxValLen+1)
	if got := send(fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(big), big), 1); !strings.HasPrefix(got, "SERVER_ERROR object too large") {
		t.Fatalf("oversized: %q", got)
	}
	// Connection still usable.
	if got := send("set ok 0 0 2\r\nhi\r\n", 1); !strings.HasPrefix(got, "STORED") {
		t.Fatalf("after errors: %q", got)
	}
}

func TestNoReply(t *testing.T) {
	_, addr := startServer(t, Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	// Two noreply sets followed by a get: the only response is the VALUE.
	io.WriteString(raw, "set nr1 0 0 1 noreply\r\na\r\nset nr2 0 0 1 noreply\r\nb\r\nget nr2\r\n")
	buf := make([]byte, 4096)
	n, err := raw.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); !strings.HasPrefix(got, "VALUE nr2 0 1\r\nb\r\nEND\r\n") {
		t.Fatalf("noreply leaked responses: %q", got)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Queue pipelined work, then shut down with the replies still unread:
	// every accepted op must still be answered. One reply is read first, so
	// the connection is known to be admitted and decoding — a Shutdown that
	// wins the race against the accept refuses the whole connection, and
	// rightly.
	const n = 50
	key := func(i int) string { return fmt.Sprintf("dk%d", i) }
	for i := 0; i < n; i++ {
		c.SendSet(key(i), []byte("v"), 0)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var stored [n]bool
	answered := 0
	recv := func() bool {
		r, err := c.Recv()
		if err != nil {
			return false // EOF once the drain finished writing what was accepted
		}
		if !r.Stored() && !r.Busy() {
			t.Fatalf("op %d answered %+v", answered, r)
		}
		stored[answered] = r.Stored()
		answered++
		return true
	}
	if !recv() {
		t.Fatal("no reply to the first queued op")
	}
	srv.Shutdown(5 * time.Second)
	for answered < n && recv() {
	}
	// Replies come in request order, so ops [0, answered) were answered. The
	// server has stopped: an op the store shows as executed was accepted, and
	// must be among them with STORED.
	th := srv.r.NewThread()
	defer th.Release()
	for i := 0; i < n; i++ {
		_, ok, err := srv.store.Get(th, []byte(key(i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i < answered && stored[i]) {
			t.Fatalf("op %d of %d (%d answered): executed = %v, answered STORED = %v", i, n, answered, ok, i < answered && stored[i])
		}
	}
	t.Logf("drained %d/%d responses through shutdown", answered, n)
	// New connections are refused.
	raw, err := net.Dial("tcp", addr)
	if err == nil {
		raw.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// The stats command must surface the adaptive controller's per-shard
// state over the wire.
func TestStatsExposesAdaptiveState(t *testing.T) {
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{
		MemWords: 1 << 20,
		Hybrid:   true,
		Observe:  true,
		HTM:      htm.Config{WriteCapacityLines: 8, EventAbortPerMillion: -1},
	})
	store := kvstore.New(r, kvstore.Config{Shards: 2})
	ctl, err := adaptive.New(r, store.ShardMutexes(), adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(r, store, Config{Controller: ctl})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)

	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Capacity-storm one shard through the wire, then tick the controller.
	big := make([]byte, 2048)
	for w := 0; w < 4; w++ {
		for i := 0; i < 40; i++ {
			if err := c.Set("bigkey", big, 0); err != nil {
				t.Fatal(err)
			}
		}
		ctl.Tick()
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// One move per shard, for good: the hot shard has left htm-cv once, the
	// cold one never, and policy plus switches say why, so there is no
	// reason key.
	shard := store.ShardFor([]byte("bigkey"))
	for _, want := range []struct {
		shard            int
		switches, policy string
	}{
		{shard, "1", tle.PolicySTMCondVarNoQ.String()},
		{1 - shard, "0", tle.PolicyHTMCondVar.String()},
	} {
		p := fmt.Sprintf("shard%d_", want.shard)
		if got := st[p+"switches"]; got != want.switches {
			t.Fatalf("%sswitches = %q, want %s: %v", p, got, want.switches, st)
		}
		if got := st[p+"policy"]; got != want.policy {
			t.Fatalf("%spolicy = %q, want %s: %v", p, got, want.policy, st)
		}
		if got, ok := st[p+"reason"]; ok {
			t.Fatalf("stats still has %sreason = %q", p, got)
		}
		// The window that demoted the hot shard stays visible after the
		// quiet ones that followed it.
		rate, err := strconv.ParseFloat(st[p+"demote_capacity_rate"], 64)
		if err != nil || (want.switches == "1") != (rate > 0.10) {
			t.Fatalf("%sdemote_capacity_rate = %q after %s switches: %v", p, st[p+"demote_capacity_rate"], want.switches, err)
		}
	}
}

func TestParseCommandTable(t *testing.T) {
	good := []struct {
		line string
		op   Op
	}{
		{"get k", OpGet},
		{"gets a b c", OpGets},
		{"set k 1 0 5", OpSet},
		{"set k 1 0 5 noreply", OpSet},
		{"add k 0 -1 0", OpAdd},
		{"replace k 4294967295 0 8192", OpReplace},
		{"cas k 0 0 3 12345", OpCas},
		{"delete k", OpDelete},
		{"delete k noreply", OpDelete},
		{"incr k 18446744073709551615", OpIncr},
		{"decr k 1 noreply", OpDecr},
		{"stats", OpStats},
		{"version", OpVersion},
		{"quit", OpQuit},
	}
	for _, tc := range good {
		c, err := ParseCommand([]byte(tc.line))
		if err != nil || c.Op != tc.op {
			t.Errorf("ParseCommand(%q) = %v, %v; want op %v", tc.line, c.Op, err, tc.op)
		}
	}
	bad := []string{
		"", "get", "set k", "set k 0 0", "set k 0 0 notanum",
		"set k 4294967296 0 1", // flags overflow
		"set k 0 0 99999999",   // data length beyond cap
		"cas k 0 0 1",          // missing cas token
		"incr k", "incr k -1",  // bad delta
		"delete", "frobnicate k", // unknown verb
		"get \x01bad", // control char in key
		"set " + strings.Repeat("k", 251) + " 0 0 1", // key too long
		"stats items",
	}
	for _, line := range bad {
		if _, err := ParseCommand([]byte(line)); err == nil {
			t.Errorf("ParseCommand(%q) accepted", line)
		}
	}
}
