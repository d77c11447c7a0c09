package server

import (
	"testing"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// TestZeroAllocHotPath is the allocation gate for the serving path: with
// warm per-connection buffers, decoding a request line, executing a get
// or set, and rendering its response must not allocate. A regression
// here multiplies directly into GC pressure at six-figure ops/sec, so
// the gate is exact (0.0 allocs/op), not a budget.
//
// The gate covers the pieces the server owns end to end: field split +
// parse (decoder), an op's round through the connection's pool, the get path and the mutation path (executor + kvstore +
// epoch), a multi-op MutateBatch as WAL replay runs it, without and with a WAL
// (the writer's ticket waits included), and response encoding. Socket I/O
// is excluded — bufio and the kernel sit outside the op lifecycle.
func TestZeroAllocHotPath(t *testing.T) {
	t.Run("decode", func(t *testing.T) {
		var o op
		var fields [][]byte
		lines := [][]byte{
			[]byte("set somekey 42 0 5 noreply"),
			[]byte("get somekey otherkey third"),
			[]byte("delete somekey"),
			[]byte("incr ctr 7"),
		}
		warm := func() {
			for _, l := range lines {
				fields = splitFields(l, fields[:0])
				if err := parseCommandFields(fields, &o.cmd); err != nil {
					t.Fatal(err)
				}
			}
		}
		warm()
		if n := testing.AllocsPerRun(200, warm); n != 0 {
			t.Fatalf("decode path allocates %.1f times per 4 commands", n)
		}
	})
	t.Run("pool", func(t *testing.T) {
		// An op's round through a warm connection: the decoder pops it,
		// the executor resolves it, the writer takes the signal and pushes
		// it back.
		p := &opPool{}
		one := func() {
			o := p.get()
			o.resolve(respStored)
			<-o.done
			recycle(o, p)
		}
		one()
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("pop, resolve and recycle allocate %.1f/op", n)
		}
		if p.made != 1 {
			t.Fatalf("%d ops made for one in flight", p.made)
		}
	})
	// Both mechanisms the adaptive ladder serves from: an HTM descriptor
	// that grows its state per attempt would pass an STM-only gate.
	for _, policy := range []tle.Policy{tle.PolicySTMCondVar, tle.PolicyHTMCondVar} {
		t.Run(policy.String(), func(t *testing.T) { zeroAllocExecute(t, policy) })
	}
}

// zeroAllocExecute gates the executing half of the hot path under one
// policy: a set, a get, an 8-op MutateBatch, a set that evicts, and a
// set, a get, an incr, a decr and a delete on a store with a WAL.
func zeroAllocExecute(t *testing.T, policy tle.Policy) {
	r := tle.New(policy, tle.Config{
		MemWords: 1 << 20,
		Observe:  true,
		HTM:      htm.Config{EventAbortPerMillion: -1},
	})
	store := kvstore.New(r, kvstore.Config{Shards: 4})
	s := New(r, store, Config{})
	th := r.NewThread()
	defer th.Release()

	o := &op{done: make(chan struct{}, 1)}

	t.Run("set", func(t *testing.T) {
		// Through run, exactly as the executor runs a queued mutation.
		key := []byte("allockey")
		data := []byte("value")
		one := func() {
			o.cmd = Command{Op: OpSet, Key: key, Flags: 1}
			o.data = data
			if resp := s.run(th, o); len(resp) == 0 {
				t.Fatal("empty response")
			}
			o.tickets = o.tickets[:0]
		}
		one()
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("executor set allocates %.1f/op", n)
		}
	})

	t.Run("get", func(t *testing.T) {
		o.cmd = Command{Op: OpGets, Keys: [][]byte{[]byte("allockey"), []byte("missing")}}
		one := func() {
			if resp := s.run(th, o); len(resp) == 0 {
				t.Fatal("empty response")
			}
			o.tickets = o.tickets[:0]
		}
		one()
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("solo get allocates %.1f/op", n)
		}
	})

	t.Run("fused", func(t *testing.T) {
		ops := make([]kvstore.BatchOp, 8)
		res := make([]kvstore.BatchResult, 8)
		keys := make([][]byte, 8)
		for i := range keys {
			keys[i] = []byte{'b', 'k', byte('0' + i)}
		}
		val := []byte("v")
		one := func() {
			for i := range ops {
				ops[i] = kvstore.BatchOp{Verb: kvstore.BatchSet, Key: keys[i], Val: val}
			}
			if err := store.MutateBatch(th, ops, res, nil); err != nil {
				t.Fatal(err)
			}
		}
		one()
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("8-op batch allocates %.1f per batch", n)
		}
	})

	t.Run("evicting-set", func(t *testing.T) {
		// One full shard and more keys than it holds: every set inserts a
		// key that is not resident and evicts the least recent one.
		const capacity = 8
		small := kvstore.New(r, kvstore.Config{Shards: 1, MaxItemsPerShard: capacity})
		var ops [1]kvstore.BatchOp
		var res [1]kvstore.BatchResult
		keys := make([][]byte, 4*capacity)
		for i := range keys {
			keys[i] = []byte{'e', 'k', byte('a' + i)}
		}
		val := []byte("value")
		i := 0
		one := func() {
			ops[0] = kvstore.BatchOp{Verb: kvstore.BatchSet, Key: keys[i%len(keys)], Val: val}
			i++
			if err := small.MutateBatch(th, ops[:], res[:], nil); err != nil {
				t.Fatal(err)
			}
		}
		for range keys {
			one()
		}
		before, err := small.Stats(th)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("evicting set allocates %.1f/op", n)
		}
		after, err := small.Stats(th)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Evictions - before.Evictions; got < 200 {
			t.Fatalf("%d evictions over 200+ sets: the shape does not evict", got)
		}
	})

	t.Run("wal", func(t *testing.T) {
		// The set and the two-key gets again, on a store with a WAL, each
		// reply's tickets waited as the writer waits them.
		durable := kvstore.New(r, kvstore.Config{Shards: 4})
		l, err := wal.Open(t.TempDir(), durable.ShardCount(), wal.Options{FsyncWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := durable.Recover(th, l); err != nil {
			t.Fatal(err)
		}
		if err := durable.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		ds := New(r, durable, Config{WAL: l})
		key, data := []byte("walkey"), []byte("9")
		gets := Command{Op: OpGets, Keys: [][]byte{key, []byte("missing")}}
		wait := func(want int) {
			if len(o.tickets) != want {
				t.Fatalf("%d tickets, want %d", len(o.tickets), want)
			}
			for _, tk := range o.tickets {
				if err := tk.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			o.tickets = o.tickets[:0]
		}
		one := func() {
			o.cmd = Command{Op: OpSet, Key: key, Flags: 1}
			o.data = data
			if resp := ds.run(th, o); string(resp) != "STORED\r\n" {
				t.Fatalf("set replied %q", resp)
			}
			wait(1)
			o.cmd = gets
			if resp := ds.run(th, o); len(resp) == 0 {
				t.Fatal("empty response")
			}
			wait(2)
			// 9 → 10 → 9 changes the digit count both ways, so each
			// reallocates the item; the delete then removes it.
			for _, step := range [...]struct {
				cmd  Command
				want string
			}{
				{Command{Op: OpIncr, Key: key, Delta: 1}, "10\r\n"},
				{Command{Op: OpDecr, Key: key, Delta: 1}, "9\r\n"},
				{Command{Op: OpDelete, Key: key}, "DELETED\r\n"},
			} {
				o.cmd = step.cmd
				if resp := ds.run(th, o); string(resp) != step.want {
					t.Fatalf("%v replied %q, want %q", step.cmd.Op, resp, step.want)
				}
				wait(1)
			}
		}
		one()
		if n := testing.AllocsPerRun(200, one); n != 0 {
			t.Fatalf("set, two-key gets, incr, decr and delete with a WAL allocate %.1f per round", n)
		}
	})
}
