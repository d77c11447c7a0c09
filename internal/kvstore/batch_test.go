package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// batchConfigs are the configurations a batch must behave identically
// under. Across shards the three elided policies run it as one fused
// transaction; the other two cannot fuse and run one section per op: a
// lock-based runtime, and a hybrid one that holds two of the touched shards
// on different TM mechanisms.
var batchConfigs = []string{"stm-spin", "stm-cv", "htm-cv", "pthread", "hybrid-mixed"}

// newBatchStore builds a 4-shard store under one of batchConfigs and returns
// nkeys keys on distinct shards.
func newBatchStore(t *testing.T, config string, nkeys int) (*tle.Runtime, *Store, [][]byte) {
	t.Helper()
	var r *tle.Runtime
	if config == "hybrid-mixed" {
		r = tle.New(tle.PolicySTMCondVar, tle.Config{MemWords: 1 << 20, Hybrid: true, HTM: htm.Config{EventAbortPerMillion: -1}})
	} else {
		p, err := tle.ParsePolicy(config)
		if err != nil {
			t.Fatal(err)
		}
		r = newRT(p)
	}
	s := New(r, Config{Shards: 4})
	keys := crossShardKeys(s, nkeys)
	if config == "hybrid-mixed" {
		if err := s.ShardMutex(s.ShardFor(keys[0])).SetPolicy(tle.PolicyHTMCondVar); err != nil {
			t.Fatal(err)
		}
	}
	return r, s, keys
}

// TestMutateBatchSequentialSemantics pins the batch contract, fused or not:
// ops in one batch behave exactly as if each had run in its own critical
// section, back to back — including duplicate keys, where op i observes
// the effects of ops 0..i-1 — across shards, with res filled for every op.
func TestMutateBatchSequentialSemantics(t *testing.T) {
	for _, config := range batchConfigs {
		t.Run(config, func(t *testing.T) {
			r, s, keys := newBatchStore(t, config, 3)
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
			if err := s.MutateBatch(th, ops, res, &sc); err != nil {
				t.Fatal(err)
			}
			// The scratch still holds the last section's op range: the whole
			// batch if it fused, the last op alone if it ran op by op.
			perOp := config == "pthread" || config == "hybrid-mixed"
			if got := sc.hi-sc.lo == 1; got != perOp {
				t.Fatalf("last section covered ops[%d:%d]; ran op by op = %v, want %v", sc.lo, sc.hi, got, perOp)
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

// TestMutateBatchCASMidBatch pins CAS visibility inside a fused batch: a
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

// TestMutateBatchWALTickets pins the group-commit contract, fused or not:
// one batch produces one ticket per touched shard, the tickets become
// durable, and recovery replays the mutations in commit order.
func TestMutateBatchWALTickets(t *testing.T) {
	for _, config := range batchConfigs {
		t.Run(config, func(t *testing.T) {
			dir := t.TempDir()
			build := func() (*tle.Runtime, *Store, [][]byte, *wal.Log) {
				r, s, keys := newBatchStore(t, config, 2)
				l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				rth := r.NewThread()
				if _, err = l.Recover(func(_ int, rec wal.Record) error { return s.Apply(rth, rec) }); err != nil {
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
			}
			res := make([]BatchResult, len(ops))
			if err := s.MutateBatch(th, ops, res, &sc); err != nil {
				t.Fatal(err)
			}
			if len(sc.Tickets) != 2 {
				t.Fatalf("tickets = %d, want one per touched shard (2)", len(sc.Tickets))
			}
			for i, tk := range sc.Tickets {
				if err := tk.Wait(); err != nil {
					t.Fatalf("ticket %d: %v", i, err)
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

// TestMutateBatchConcurrentLinearizes hammers fused increments from many
// threads: every batch is one transaction, so the final counter must be
// exactly the sum of all fused increments — lost updates would betray a
// torn fusion.
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
