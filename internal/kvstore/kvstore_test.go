package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/lockcheck"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

func newRT(p tle.Policy) *tle.Runtime {
	return tle.New(p, tle.Config{
		MemWords: 1 << 20,
		HTM:      htm.Config{EventAbortPerMillion: -1},
	})
}

func TestGetSetDeleteBasics(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{})
			th := r.NewThread()
			if err := s.Set(th, []byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get(th, []byte("k1"))
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get = %q,%v,%v", v, ok, err)
			}
			if _, ok, _ := s.Get(th, []byte("nope")); ok {
				t.Fatal("absent key found")
			}
			// Replace.
			if err := s.Set(th, []byte("k1"), []byte("v2-longer")); err != nil {
				t.Fatal(err)
			}
			v, ok, _ = s.Get(th, []byte("k1"))
			if !ok || string(v) != "v2-longer" {
				t.Fatalf("after replace: %q,%v", v, ok)
			}
			rm, err := s.Delete(th, []byte("k1"))
			if err != nil || !rm {
				t.Fatalf("Delete = %v,%v", rm, err)
			}
			if rm, _ := s.Delete(th, []byte("k1")); rm {
				t.Fatal("double delete succeeded")
			}
			if n, _ := s.Len(th); n != 0 {
				t.Fatalf("Len = %d", n)
			}
		})
	}
}

// TestStripedOrecs runs the store on cache-line-granularity orecs
// (StripeShift 3) — the serving configuration, where pack/unpack/compare
// go through LoadRange/StoreRange one stripe at a time — and checks value
// round-trips and concurrent counter atomicity under every policy.
func TestStripedOrecs(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := tle.New(p, tle.Config{
				MemWords:    1 << 20,
				StripeShift: 3,
				HTM:         htm.Config{EventAbortPerMillion: -1},
			})
			s := New(r, Config{Shards: 2})
			th := r.NewThread()
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 500, 2048} {
				key := []byte(fmt.Sprintf("k%d", n))
				val := make([]byte, n)
				for i := range val {
					val[i] = byte(i*13 + n)
				}
				if err := s.Set(th, key, val); err != nil {
					t.Fatalf("Set len %d: %v", n, err)
				}
				got, ok, err := s.Get(th, key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					t.Fatalf("len %d round trip: ok=%v err=%v", n, ok, err)
				}
			}
			if err := s.Set(th, []byte("ctr"), []byte("0")); err != nil {
				t.Fatal(err)
			}
			th.Release()
			// Concurrent increments: with striped orecs neighbouring items
			// share stripes, so this also shakes out false-conflict hangs.
			const workers, rounds = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wth := r.NewThread()
					defer wth.Release()
					for i := 0; i < rounds; i++ {
						if _, st, err := s.Incr(wth, []byte("ctr"), 1, false); err != nil || st != IncrStored {
							t.Errorf("Incr: %v %v", st, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			th = r.NewThread()
			defer th.Release()
			v, ok, err := s.Get(th, []byte("ctr"))
			if err != nil || !ok || string(v) != fmt.Sprint(workers*rounds) {
				t.Fatalf("ctr = %q,%v,%v, want %d", v, ok, err, workers*rounds)
			}
		})
	}
}

func TestValueLengths(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{})
	th := r.NewThread()
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 255, 1024} {
		key := []byte(fmt.Sprintf("key-%d", n))
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(i * 7)
		}
		if err := s.Set(th, key, val); err != nil {
			t.Fatalf("Set len %d: %v", n, err)
		}
		got, ok, err := s.Get(th, key)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("len %d round trip failed: ok=%v err=%v", n, ok, err)
		}
	}
}

func TestInputValidation(t *testing.T) {
	r := newRT(tle.PolicyPthread)
	s := New(r, Config{})
	th := r.NewThread()
	if err := s.Set(th, nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Set(th, make([]byte, MaxKeyLen+1), []byte("v")); err == nil {
		t.Fatal("oversize key accepted")
	}
	if err := s.Set(th, []byte("k"), make([]byte, MaxValLen+1)); err == nil {
		t.Fatal("oversize value accepted")
	}
	if _, _, err := s.Get(th, nil); err == nil {
		t.Fatal("Get with empty key accepted")
	}
	if _, err := s.Delete(th, nil); err == nil {
		t.Fatal("Delete with empty key accepted")
	}
}

// The default bucket count follows the capacity: a store filled to the
// brim keeps its chains short, whatever MaxItemsPerShard is.
func TestDefaultBucketsKeepChainsShort(t *testing.T) {
	r := newRT(tle.PolicyPthread)
	s := New(r, Config{Shards: 2, MaxItemsPerShard: 1000})
	th := r.NewThread()
	for i := 0; i < 4000; i++ { // twice the capacity: every shard is full
		k := []byte(fmt.Sprintf("chain-key-%d", i))
		if err := s.Set(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	eng := r.Engine()
	items, chains, longest := 0, 0, 0
	for i := range s.shards {
		sh := &s.shards[i]
		if got := int(eng.Load(sh.base + shCount)); got != 1000 {
			t.Fatalf("shard %d holds %d items, want it full at 1000", i, got)
		}
		for b := 0; b < 1<<(64-sh.shift); b++ {
			n := 0
			for it := memseg.Addr(eng.Load(sh.buckets + memseg.Addr(b))); it != memseg.Nil; it = memseg.Addr(eng.Load(it + itChain)) {
				n++
			}
			if n > 0 {
				chains++
			}
			items += n
			longest = max(longest, n)
		}
	}
	if items != 2000 {
		t.Fatalf("chains hold %d items, want 2000", items)
	}
	if mean := float64(items) / float64(chains); mean > 2 {
		t.Fatalf("mean chain length %.2f over %d chains (longest %d), want <= 2", mean, chains, longest)
	}
	// An explicit bucket count is still honoured.
	if s := New(r, Config{BucketsPerShard: 3, MaxItemsPerShard: 1000}); s.shards[0].shift != 62 {
		t.Fatalf("explicit BucketsPerShard 3: shift = %d, want 62 (4 buckets)", s.shards[0].shift)
	}
}

// Model check against a map, including hash-collision chains (1 shard,
// 2 buckets forces long chains).
func TestMatchesModel(t *testing.T) {
	r := newRT(tle.PolicySTMCondVarNoQ)
	s := New(r, Config{Shards: 1, BucketsPerShard: 2, MaxItemsPerShard: 10_000})
	th := r.NewThread()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			val := fmt.Sprintf("v%d", i)
			if err := s.Set(th, []byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		case 1:
			rm, err := s.Delete(th, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[key]; rm != want {
				t.Fatalf("Delete(%s) = %v, model %v (step %d)", key, rm, want, i)
			}
			delete(model, key)
		default:
			v, ok, err := s.Get(th, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOk := model[key]
			if ok != wantOk || (ok && string(v) != want) {
				t.Fatalf("Get(%s) = %q,%v; model %q,%v (step %d)", key, v, ok, want, wantOk, i)
			}
		}
	}
	if n, _ := s.Len(th); n != len(model) {
		t.Fatalf("Len = %d, model %d", n, len(model))
	}
}

// Eviction order: with capacity 3 in a single shard, a key read since it
// was stored outlives one that was not, and the list is store order rotated
// by that one second chance.
func TestLRUEvictionOrder(t *testing.T) {
	r := newRT(tle.PolicyPthread)
	s := New(r, Config{Shards: 1, MaxItemsPerShard: 3})
	th := r.NewThread()
	for _, k := range []string{"a", "b", "c"} {
		s.Set(th, []byte(k), []byte("v"))
	}
	// Touch "a", the oldest: the next victim is "b".
	s.Get(th, []byte("a"))
	// Insert "d": "a" is spared, "b" must be evicted.
	s.Set(th, []byte("d"), []byte("v"))
	if keys, err := s.LRUKeys(th, 0); err != nil || fmt.Sprint(keys) != "[d a c]" {
		t.Fatalf("LRUKeys = %v, %v; want [d a c]", keys, err)
	}
	if _, ok, _ := s.Get(th, []byte("b")); ok {
		t.Fatal("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok, _ := s.Get(th, []byte(k)); !ok {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
	st, _ := s.Stats(th)
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
}

// A hot set that is read between bursts of cold sets keeps earning its
// second chance and is never evicted, however many cold keys pass through.
// The hot keys enter the cache the way a working set does, between other
// traffic: an eviction spares at most maxSecondChances items, so a longer
// unbroken run of referenced items at the tail would lose a member
// (TestEvictionWithWholeTailReferenced pins that side).
func TestHotSetSurvivesColdBursts(t *testing.T) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVar, tle.PolicyHTMCondVar} {
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{Shards: 1, MaxItemsPerShard: 64})
			th := r.NewThread()
			cold := 0
			setCold := func(n int) {
				for i := 0; i < n; i++ {
					k := []byte(fmt.Sprintf("cold-%d", cold))
					cold++
					if err := s.Set(th, k, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			hot := make([][]byte, 24)
			for i := range hot {
				hot[i] = []byte(fmt.Sprintf("hot-%d", i))
				if err := s.Set(th, hot[i], hot[i]); err != nil {
					t.Fatal(err)
				}
				setCold(1)
			}
			for round := 0; round < 60; round++ {
				for _, k := range hot {
					if v, ok, err := s.Get(th, k); err != nil || !ok || !bytes.Equal(v, k) {
						t.Fatalf("round %d: hot key %s = %q, %v, %v", round, k, v, ok, err)
					}
				}
				// Up to 39 per burst: the 40 slots the hot set leaves. A longer
				// burst brings a spared item round to the tail again unread,
				// and exact LRU would evict it too.
				setCold(10 + round%30)
			}
			if n, _ := s.Len(th); n != 64 {
				t.Fatalf("Len = %d, want the shard full at 64", n)
			}
			st, _ := s.Stats(th)
			if want := uint64(len(hot) + cold - 64); st.Evictions != want {
				t.Fatalf("Evictions = %d, want %d", st.Evictions, want)
			}
		})
	}
}

// fullyReferencedShard fills a single-shard store to capacity and reads
// every key, so the whole eviction list is referenced.
func fullyReferencedShard(t *testing.T, r *tle.Runtime, capacity int) (*Store, *tm.Thread) {
	t.Helper()
	s := New(r, Config{Shards: 1, MaxItemsPerShard: capacity})
	th := r.NewThread()
	residentKeys(t, s, th, capacity)
	return s, th
}

// Second chances are bounded: when every item at the tail is referenced a
// set still terminates, evicts exactly the overflow (one item per insert,
// alone or in a batch), and what it spared sits at the front unreferenced.
func TestEvictionWithWholeTailReferenced(t *testing.T) {
	for _, p := range tle.Policies {
		t.Run(p.String(), func(t *testing.T) {
			const capacity = 32
			s, th := fullyReferencedShard(t, newRT(p), capacity)
			if err := s.Set(th, []byte("new-0"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			keys, err := s.LRUKeys(th, 0)
			if err != nil {
				t.Fatal(err)
			}
			// resident-0000..0003 were spared in turn, resident-0004 went regardless.
			if got, want := fmt.Sprint(keys[:6]), "[new-0 resident-0003 resident-0002 resident-0001 resident-0000 resident-0031]"; got != want {
				t.Fatalf("front of the list = %s, want %s", got, want)
			}
			if tail := keys[len(keys)-1]; tail != "resident-0005" {
				t.Fatalf("tail = %s, want resident-0005", tail)
			}
			if _, ok, _ := s.Get(th, []byte("resident-0004")); ok {
				t.Fatal("resident-0004 survived a fifth second chance")
			}
			if w := rawFlags(t, s, th, []byte("resident-0000")); w&itReferenced != 0 {
				t.Fatal("a spared item kept its referenced bit")
			}
			ops := make([]BatchOp, 10)
			for i := range ops {
				ops[i] = BatchOp{Verb: BatchSet, Key: []byte(fmt.Sprintf("new-%d", i+1)), Val: []byte("v")}
			}
			var sc BatchScratch
			if err := s.MutateBatch(th, ops, make([]BatchResult, len(ops)), &sc); err != nil {
				t.Fatal(err)
			}
			st, _ := s.Stats(th)
			if n, _ := s.Len(th); n != capacity || st.Evictions != 11 {
				t.Fatalf("after 11 inserts into a full shard: Len = %d, Evictions = %d; want %d, 11", n, st.Evictions, capacity)
			}
		})
	}
}

// The bound on second chances exists so that a small set into a full,
// fully referenced shard stays inside a small HTM write set: with 24 lines
// (serve-write's budget) it commits in hardware, no capacity abort.
func TestEvictingSetFitsSmallHTMWriteSet(t *testing.T) {
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{
		MemWords: 1 << 20,
		HTM:      htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: -1},
	})
	s, th := fullyReferencedShard(t, r, 256)
	before := r.Engine().Snapshot()
	val := bytes.Repeat([]byte("v"), 64)
	const sets = 200
	for i := 0; i < sets; i++ {
		if err := s.Set(th, []byte(fmt.Sprintf("key:%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	d := r.Engine().Snapshot().Sub(before)
	if d.TotalAborts() != 0 || d.SerialRuns != 0 || d.Commits != sets {
		t.Fatalf("%d evicting sets with 24 write lines: %v", sets, d)
	}
	if st, _ := s.Stats(th); st.Evictions != sets {
		t.Fatalf("Evictions = %d, want %d", st.Evictions, sets)
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRT(tle.PolicyHTMCondVar)
	s := New(r, Config{})
	th := r.NewThread()
	s.Set(th, []byte("x"), []byte("1"))
	s.Get(th, []byte("x"))
	s.Get(th, []byte("y"))
	s.Delete(th, []byte("x"))
	st, err := s.Stats(th)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sets != 1 || st.Gets != 2 || st.Hits != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The store's critical sections must be 2PL-clean (elidable without
// refactoring), including the nested stats lock.
func TestStoreIs2PLClean(t *testing.T) {
	c := lockcheck.New()
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20, Tracer: c})
	s := New(r, Config{Shards: 2, MaxItemsPerShard: 4})
	th := r.NewThread()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%d", i%20))
		s.Set(th, k, []byte("v"))
		s.Get(th, k)
		if i%5 == 0 {
			s.Delete(th, k)
		}
	}
	if !c.Clean() {
		t.Fatalf("kvstore violates 2PL: %v %v", c.Violations(), c.Errors())
	}
}

// Concurrent mixed workload across all policies: per-key last-writer data
// integrity and stats coherence.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{Shards: 4, MaxItemsPerShard: 256})
			const threads, per = 4, 400
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				th := r.NewThread()
				rng := rand.New(rand.NewSource(int64(w)))
				wg.Add(1)
				go func(w int, th *tm.Thread, rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := []byte(fmt.Sprintf("k%d", rng.Intn(64)))
						switch rng.Intn(4) {
						case 0:
							if err := s.Set(th, key, key); err != nil {
								t.Errorf("Set: %v", err)
								return
							}
						case 1:
							if _, err := s.Delete(th, key); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						default:
							v, ok, err := s.Get(th, key)
							if err != nil {
								t.Errorf("Get: %v", err)
								return
							}
							if ok && !bytes.Equal(v, key) {
								t.Errorf("Get(%s) returned foreign value %q", key, v)
								return
							}
						}
					}
				}(w, th, rng)
			}
			wg.Wait()
			th := r.NewThread()
			st, err := s.Stats(th)
			if err != nil {
				t.Fatal(err)
			}
			if st.Hits > st.Gets {
				t.Fatalf("hits %d > gets %d", st.Hits, st.Gets)
			}
			n, err := s.Len(th)
			if err != nil || n < 0 || n > 64 {
				t.Fatalf("Len = %d, %v", n, err)
			}
		})
	}
}

// Memory accounting: deleting everything returns the heap to its baseline.
func TestNoLeaks(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{Shards: 2})
	th := r.NewThread()
	baseline := r.Engine().Memory().LiveWords()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := s.Set(th, k, bytes.Repeat([]byte("x"), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if rm, err := s.Delete(th, k); err != nil || !rm {
			t.Fatalf("Delete %d: %v %v", i, rm, err)
		}
	}
	if lw := r.Engine().Memory().LiveWords(); lw != baseline {
		t.Fatalf("leaked %d words", lw-baseline)
	}
}

func BenchmarkMixedOps(b *testing.B) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVarNoQ, tle.PolicyHTMCondVar} {
		b.Run(p.String(), func(b *testing.B) {
			r := newRT(p)
			s := New(r, Config{})
			th := r.NewThread()
			keys := make([][]byte, 256)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("bench-key-%d", i))
				s.Set(th, keys[i], keys[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				switch i % 10 {
				case 0:
					s.Set(th, k, k)
				case 1:
					s.Delete(th, k)
					s.Set(th, k, k)
				default:
					s.Get(th, k)
				}
			}
		})
	}
}

// benchPolicies are the mechanisms the per-policy benchmarks compare: the
// lock baseline and the two the serving stack's adaptive ladder moves
// between.
var benchPolicies = []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVar, tle.PolicyHTMCondVar}

// benchStore builds a store shaped like tleserved's (8 shards of 4096
// items) and fills it to capacity with 64-byte values.
func benchStore(b *testing.B, p tle.Policy) (*Store, *tm.Thread, [][]byte) {
	r := tle.New(p, tle.Config{MemWords: 1 << 23, HTM: htm.Config{EventAbortPerMillion: -1}})
	s := New(r, Config{Shards: 8, MaxItemsPerShard: 4096})
	th := r.NewThread()
	keys := make([][]byte, 8*4096)
	val := bytes.Repeat([]byte("v"), 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := s.Set(th, keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(th.Release)
	return s, th, keys
}

// TestDefaultCacheFitsDefaultHeap fills every slot of tleserved's default
// shape (8 shards of 4096 items on a 1 << 23-word heap) with 64-byte and
// 2 KiB values in turn, the two sizes of the benchmark's write mix. A
// 2 KiB item is 264 words; in a 512-word block, half of the cache alone
// would take the whole heap.
func TestDefaultCacheFitsDefaultHeap(t *testing.T) {
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 23})
	s := New(r, Config{Shards: 8, MaxItemsPerShard: 4096})
	th := r.NewThread()
	defer th.Release()
	small, large := bytes.Repeat([]byte("s"), 64), bytes.Repeat([]byte("L"), 2048)
	var filled [8]int
	items := 0
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("heap exhausted after %d of %d items: %v", items, 8*4096, p)
		}
	}()
	for i := 0; items < 8*4096; i++ {
		key := []byte(fmt.Sprintf("fill-key-%08d", i))
		sh := s.ShardFor(key)
		if filled[sh] == 4096 {
			continue
		}
		val := small
		if filled[sh]%2 == 1 {
			val = large
		}
		if err := s.Set(th, key, val); err != nil {
			t.Fatal(err)
		}
		filled[sh]++
		items++
	}
	n, err := s.Len(th)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats(th)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*4096 || st.Evictions != 0 {
		t.Fatalf("store holds %d items after %d evictions, want %d and none", n, st.Evictions, 8*4096)
	}
}

// BenchmarkGet times one hit on a full store under each policy: the
// kvstore-layer cost of an elided read next to the locked one.
func BenchmarkGet(b *testing.B) {
	for _, p := range benchPolicies {
		b.Run(p.String(), func(b *testing.B) {
			s, th, keys := benchStore(b, p)
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, _, _ = s.GetItemAppend(th, keys[i*7919%len(keys)], buf[:0])
			}
		})
	}
}

// BenchmarkSet times one replacing set on a full store under each policy, at
// the two value sizes of the benchmark's serve-write mix.
func BenchmarkSet(b *testing.B) {
	for _, p := range benchPolicies {
		for _, size := range []int{64, 2048} {
			b.Run(fmt.Sprintf("%s/%d", p, size), func(b *testing.B) {
				s, th, keys := benchStore(b, p)
				if size > 64 {
					// A 2 KiB item takes a 2.5 KiB block: growing every key
					// would overflow benchStore's heap.
					keys = keys[:4096]
				}
				val := bytes.Repeat([]byte("w"), size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Set(th, keys[i*7919%len(keys)], val); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSetParallel runs replacing sets from GOMAXPROCS goroutines on
// tleserved's runtime shape (hybrid, DeferredReclaim, stm-cv-noq, 8 shards
// of 4096 items), at the two value sizes of the benchmark's serve-write
// mix. Read it at -cpu 1,2: ns/op is wall time over all goroutines' sets,
// and frees/op counts the replaced items the setting threads parked and
// then freed themselves (a set that fell back to serial mode frees at once
// and is not counted).
func BenchmarkSetParallel(b *testing.B) {
	for _, size := range []int{64, 2048} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			r := tle.New(tle.PolicySTMCondVarNoQ, tle.Config{MemWords: 1 << 22, Hybrid: true,
				DeferredReclaim: true, HTM: htm.Config{EventAbortPerMillion: -1}})
			s := New(r, Config{Shards: 8, MaxItemsPerShard: 4096})
			th := r.NewThread()
			keys := residentKeys(b, s, th, 4096)
			th.Release()
			val := bytes.Repeat([]byte("w"), size)
			before := r.Engine().Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				wth := r.NewThread()
				defer wth.Release()
				for i := int(wth.ID()) * 977; pb.Next(); i++ {
					if err := s.Set(wth, keys[i*7919%len(keys)], val); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			d := r.Engine().Snapshot().Sub(before)
			b.ReportMetric(float64(d.Reclaimed)/float64(b.N), "frees/op")
		})
	}
}
