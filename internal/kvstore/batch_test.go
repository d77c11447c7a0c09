package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// batchConfigs are the configurations a batch must behave identically
// under: the three elided policies, the lock baseline, and a hybrid runtime
// that holds two of the touched shards on different TM mechanisms.
var batchConfigs = []string{"stm-spin", "stm-cv", "htm-cv", "pthread", "hybrid-mixed"}

// newBatchStore builds a 4-shard store under one of batchConfigs, on a
// runtime built from cfg plus the config's policy, and returns nkeys keys on
// distinct shards.
func newBatchStore(t *testing.T, config string, nkeys int, cfg tle.Config) (*tle.Runtime, *Store, [][]byte) {
	t.Helper()
	cfg.MemWords = 1 << 20
	cfg.HTM = htm.Config{EventAbortPerMillion: -1}
	p := tle.PolicySTMCondVar
	if config == "hybrid-mixed" {
		cfg.Hybrid = true
	} else {
		var err error
		if p, err = tle.ParsePolicy(config); err != nil {
			t.Fatal(err)
		}
	}
	r := tle.New(p, cfg)
	s := New(r, Config{Shards: 4})
	keys := crossShardKeys(s, nkeys)
	if config == "hybrid-mixed" {
		if err := s.ShardMutex(s.ShardFor(keys[0])).SetPolicy(tle.PolicyHTMCondVar); err != nil {
			t.Fatal(err)
		}
	}
	return r, s, keys
}

// oneLockTracer fails the test when a thread enters a mutex's critical
// section while it is inside another's, and counts the sections entered.
type oneLockTracer struct {
	t        *testing.T
	mu       sync.Mutex
	held     map[uint64]int // thread id -> mutex id it is inside
	acquires int
}

func (tr *oneLockTracer) Acquire(tid uint64, mid int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if h, ok := tr.held[tid]; ok {
		tr.t.Errorf("thread %d entered mutex %d while holding mutex %d", tid, mid, h)
	}
	tr.held[tid] = mid
	tr.acquires++
}

func (tr *oneLockTracer) Release(tid uint64, mid int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	delete(tr.held, tid)
}

// TestMutateBatchSequentialSemantics pins the batch contract: ops in one
// batch behave exactly as if each had run in its own critical section,
// back to back — including duplicate keys, where op i observes the effects
// of ops 0..i-1 — across shards, with res filled for every op. Each op is
// one section on one shard mutex, and no section holds two.
func TestMutateBatchSequentialSemantics(t *testing.T) {
	for _, config := range batchConfigs {
		t.Run(config, func(t *testing.T) {
			tr := &oneLockTracer{t: t, held: map[uint64]int{}}
			r, s, keys := newBatchStore(t, config, 3, tle.Config{Tracer: tr})
			th := r.NewThread()
			var sc BatchScratch
			a, b, ctr := keys[0], keys[1], keys[2]

			ops := []BatchOp{
				{Verb: BatchSet, Key: a, Val: []byte("1"), Flags: 7},
				{Verb: BatchAdd, Key: a, Val: []byte("x")},     // a exists: NOT_STORED
				{Verb: BatchDelete, Key: a},                    // removes the set above
				{Verb: BatchAdd, Key: a, Val: []byte("2")},     // now fresh: stores
				{Verb: BatchReplace, Key: b, Val: []byte("x")}, // b absent: NOT_STORED
				{Verb: BatchSet, Key: ctr, Val: []byte("41")},
				{Verb: BatchIncr, Key: ctr, Delta: 1},
				{Verb: BatchDecr, Key: ctr, Delta: 100}, // floors at 0
			}
			res := make([]BatchResult, len(ops))
			before := tr.acquires
			if err := s.MutateBatch(th, ops, res, &sc); err != nil {
				t.Fatal(err)
			}
			if got := tr.acquires - before; got != len(ops) {
				t.Fatalf("batch of %d ops entered %d critical sections, want one per op", len(ops), got)
			}
			want := []BatchResult{
				{Store: Stored},
				{Store: NotStored},
				{Removed: true},
				{Store: Stored},
				{Store: NotStored},
				{Store: Stored},
				{Incr: IncrStored, NewVal: 42},
				{Incr: IncrStored, NewVal: 0},
			}
			for i := range want {
				if res[i] != want[i] {
					t.Errorf("op %d: got %+v want %+v", i, res[i], want[i])
				}
			}
			if v, ok, _ := s.Get(th, a); !ok || string(v) != "2" {
				t.Fatalf("a = %q, %v after batch", v, ok)
			}
			if v, ok, _ := s.Get(th, ctr); !ok || string(v) != "0" {
				t.Fatalf("ctr = %q, %v after batch", v, ok)
			}
		})
	}
}

// TestShardObserverSeesOnlyItsOwnSections pins per-shard attribution: a
// batch spanning three shards adds, on each shard mutex's observer, exactly
// the commits of that shard's ops — the per-lock rates the adaptive
// controller samples belong to the shard they are read from.
func TestShardObserverSeesOnlyItsOwnSections(t *testing.T) {
	for _, config := range batchConfigs {
		t.Run(config, func(t *testing.T) {
			r, s, keys := newBatchStore(t, config, 3, tle.Config{Observe: true})
			th := r.NewThread()
			defer th.Release()
			var sc BatchScratch
			a, b, c := keys[0], keys[1], keys[2]
			ops := []BatchOp{
				{Verb: BatchSet, Key: a, Val: []byte("1")},
				{Verb: BatchSet, Key: b, Val: []byte("1")},
				{Verb: BatchSet, Key: a, Val: []byte("2")},
				{Verb: BatchDelete, Key: c}, // a miss still commits its section
				{Verb: BatchSet, Key: b, Val: []byte("2")},
				{Verb: BatchDelete, Key: a},
			}
			want := make([]uint64, s.ShardCount())
			for _, op := range ops {
				want[s.ShardFor(op.Key)]++
			}
			before := make([]uint64, s.ShardCount())
			for i := range before {
				before[i] = s.ShardMutex(i).Observer().Snapshot().Commits
			}
			if err := s.MutateBatch(th, ops, make([]BatchResult, len(ops)), &sc); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got := s.ShardMutex(i).Observer().Snapshot().Commits - before[i]; got != want[i] {
					t.Errorf("shard %d observer: %d commits, want %d (its own ops)", i, got, want[i])
				}
			}
		})
	}
}

// TestMutateBatchCASMidBatch pins CAS visibility inside a batch: a
// set earlier in the batch advances the CAS token, so a stale token later
// in the same batch fails exactly as it would across two solo sections.
func TestMutateBatchCASMidBatch(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{Shards: 4})
	th := r.NewThread()
	var sc BatchScratch

	if err := s.Set(th, []byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	it, ok, err := s.GetItem(th, []byte("k"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	tok := it.CAS

	ops := []BatchOp{
		{Verb: BatchCAS, Key: []byte("k"), Val: []byte("v1"), Cas: tok}, // fresh token: stores, bumps CAS
		{Verb: BatchCAS, Key: []byte("k"), Val: []byte("v2"), Cas: tok}, // same token now stale: EXISTS
		{Verb: BatchCAS, Key: []byte("gone"), Val: []byte("x"), Cas: 1}, // absent: NOT_FOUND
	}
	res := make([]BatchResult, len(ops))
	if err := s.MutateBatch(th, ops, res, &sc); err != nil {
		t.Fatal(err)
	}
	if res[0].Store != Stored || res[1].Store != CASExists || res[2].Store != CASNotFound {
		t.Fatalf("cas results = %+v", res)
	}
	if v, _, _ := s.Get(th, []byte("k")); string(v) != "v1" {
		t.Fatalf("k = %q; stale cas must not have applied", v)
	}
}

// TestMutateBatchErrorIsolation pins per-op rejection: an invalid op gets
// its own error and is skipped; its neighbours still run and commit.
func TestMutateBatchErrorIsolation(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{Shards: 4})
	th := r.NewThread()
	var sc BatchScratch

	longKey := []byte(strings.Repeat("k", MaxKeyLen+1))
	bigVal := bytes.Repeat([]byte("v"), MaxValLen+1)
	ops := []BatchOp{
		{Verb: BatchSet, Key: []byte("ok1"), Val: []byte("a")},
		{Verb: BatchSet, Key: longKey, Val: []byte("b")},
		{Verb: BatchSet, Key: []byte("ok2"), Val: bigVal},
		{Verb: BatchSet, Key: []byte("ok3"), Val: []byte("c")},
		{Verb: BatchDelete, Key: nil},
	}
	res := make([]BatchResult, len(ops))
	if err := s.MutateBatch(th, ops, res, &sc); err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Store != Stored {
		t.Fatalf("op 0 = %+v", res[0])
	}
	if res[1].Err != ErrBadKey {
		t.Fatalf("op 1 err = %v, want ErrBadKey", res[1].Err)
	}
	if res[2].Err != ErrBadVal {
		t.Fatalf("op 2 err = %v, want ErrBadVal", res[2].Err)
	}
	if res[3].Err != nil || res[3].Store != Stored {
		t.Fatalf("op 3 = %+v", res[3])
	}
	if res[4].Err != ErrBadKey {
		t.Fatalf("op 4 err = %v, want ErrBadKey", res[4].Err)
	}
	for _, k := range []string{"ok1", "ok3"} {
		if _, ok, _ := s.Get(th, []byte(k)); !ok {
			t.Fatalf("%s missing: rejected neighbour leaked into valid ops", k)
		}
	}
	if _, ok, _ := s.Get(th, []byte("ok2")); ok {
		t.Fatal("oversized value stored")
	}
}

// crossShardKeys returns n keys that land on n distinct shards.
func crossShardKeys(s *Store, n int) [][]byte {
	keys := make([][]byte, 0, n)
	seen := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("xs%d", i))
		if sh := s.ShardFor(k); !seen[sh] {
			seen[sh] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestMutateBatchWALTickets pins the ack contract: each op's Durable ticket
// covers its own record, and the NOT_STORED add at the end, which logs
// nothing, covers the set it observed, before any fsync has run (the
// window parks the syncer). Tickets are waited newest first, so no wait
// rides on an earlier one's fsync. Recovery replays the mutations in
// commit order.
func TestMutateBatchWALTickets(t *testing.T) {
	for _, config := range batchConfigs {
		t.Run(config, func(t *testing.T) {
			dir := t.TempDir()
			build := func() (*tle.Runtime, *Store, [][]byte, *wal.Log) {
				r, s, keys := newBatchStore(t, config, 2, tle.Config{})
				l, err := wal.Open(dir, s.ShardCount(), wal.Options{FsyncWindow: 300 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				rth := r.NewThread()
				if _, err = s.Recover(rth, l); err != nil {
					t.Fatal(err)
				}
				rth.Release()
				if err := s.AttachWAL(l); err != nil {
					t.Fatal(err)
				}
				return r, s, keys, l
			}

			r, s, keys, l := build()
			th := r.NewThread()
			var sc BatchScratch
			ops := []BatchOp{
				{Verb: BatchSet, Key: keys[0], Val: []byte("v0"), Flags: 3},
				{Verb: BatchSet, Key: keys[1], Val: []byte("v1")},
				{Verb: BatchSet, Key: keys[0], Val: []byte("v2"), Flags: 9},
				{Verb: BatchDelete, Key: keys[1]},
				{Verb: BatchAdd, Key: keys[1], Val: []byte("zz")}, // fresh after the delete: stores and logs
				{Verb: BatchAdd, Key: keys[0], Val: []byte("no")}, // exists: NOT_STORED, logs nothing
			}
			// The shard sequence each op's ticket must cover.
			covers := []uint64{1, 1, 2, 2, 3, 2}
			res := make([]BatchResult, len(ops))
			if err := s.MutateBatch(th, ops, res, &sc); err != nil {
				t.Fatal(err)
			}
			if res[5].Store != NotStored {
				t.Fatalf("add of a present key = %v, want NOT_STORED", res[5].Store)
			}
			for i := len(ops) - 1; i >= 0; i-- {
				if err := res[i].Durable.Wait(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if sh := s.ShardFor(ops[i].Key); l.Durable(sh) < covers[i] {
					t.Fatalf("op %d acked with shard %d durable to %d, want %d", i, sh, l.Durable(sh), covers[i])
				}
			}
			st := l.Stats()
			if st.Appends != 5 {
				t.Fatalf("wal appends = %d, want 5 (one record per logged mutation)", st.Appends)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Crash-replay: a fresh store recovered from the log must match.
			r2, s2, _, l2 := build()
			defer l2.Close()
			th2 := r2.NewThread()
			if v, ok, _ := s2.Get(th2, keys[0]); !ok || string(v) != "v2" {
				t.Fatalf("recovered %q = %q, %v; want v2", keys[0], v, ok)
			}
			it, ok, err := s2.GetItem(th2, keys[0])
			if err != nil || !ok || it.Flags != 9 {
				t.Fatalf("recovered flags = %+v, %v, %v", it, ok, err)
			}
			if v, ok, _ := s2.Get(th2, keys[1]); !ok || string(v) != "zz" {
				t.Fatalf("recovered %q = %q, %v; want zz", keys[1], v, ok)
			}
		})
	}
}

// TestMutateBatchConcurrentLinearizes hammers batched increments from many
// threads: every incr is its own critical section, so the final counter
// must be exactly the sum of all of them — a lost update would betray a
// section that was not atomic.
func TestMutateBatchConcurrentLinearizes(t *testing.T) {
	r := newRT(tle.PolicyHTMCondVar)
	s := New(r, Config{Shards: 4})
	th := r.NewThread()
	if err := s.Set(th, []byte("ctr"), []byte("0")); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		batches = 50
		width   = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := r.NewThread()
			defer wth.Release()
			var sc BatchScratch
			ops := make([]BatchOp, width)
			res := make([]BatchResult, width)
			for b := 0; b < batches; b++ {
				for i := range ops {
					// Mix a private set with the shared counter so
					// batches touch several shards.
					if i%2 == 0 {
						ops[i] = BatchOp{Verb: BatchIncr, Key: []byte("ctr"), Delta: 1}
					} else {
						ops[i] = BatchOp{Verb: BatchSet, Key: []byte(fmt.Sprintf("w%d-%d", w, i)), Val: []byte("x")}
					}
				}
				if err := s.MutateBatch(wth, ops, res, &sc); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for i := range res {
					if res[i].Err != nil {
						t.Errorf("worker %d op %d: %v", w, i, res[i].Err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := fmt.Sprint(workers * batches * (width / 2))
	if v, ok, _ := s.Get(th, []byte("ctr")); !ok || string(v) != want {
		t.Fatalf("ctr = %q, %v; want %s", v, ok, want)
	}
}
