package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"gotle/internal/chaos"
	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

// elided are the two mechanisms whose read-only commit path a get must stay
// on.
var elided = []tle.Policy{tle.PolicySTMCondVar, tle.PolicyHTMCondVar}

// residentKeys stores n keys (value = key) and reads each once, so every
// item's referenced bit is set: from here on a hit has nothing to store.
func residentKeys(t testing.TB, s *Store, th *tm.Thread, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("resident-%04d", i))
		if err := s.Set(th, keys[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if _, ok, err := s.Get(th, k); err != nil || !ok {
			t.Fatalf("warming Get(%s) = %v, %v", k, ok, err)
		}
	}
	return keys
}

// rawFlags reads key's whole itFlags word (client flags and the referenced
// bit) without touching it.
func rawFlags(t *testing.T, s *Store, th *tm.Thread, key []byte) uint64 {
	t.Helper()
	h := fnv1a(key)
	sh := &s.shards[h%uint64(len(s.shards))]
	var word uint64
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		_, item := s.findInChain(tx, sh, sh.bucket(h), key)
		if item == memseg.Nil {
			return fmt.Errorf("rawFlags: %q absent", key)
		}
		word = tx.Load(item + itFlags)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return word
}

// After one warming pass every get over resident keys — and every miss —
// is a read-only commit: the engine's ReadOnly count rises by exactly the
// number of gets, with no abort and no second attempt.
func TestGetsCommitReadOnly(t *testing.T) {
	for _, p := range elided {
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{Shards: 2})
			th := r.NewThread()
			keys := residentKeys(t, s, th, 200)
			before := r.Engine().Snapshot()
			const rounds = 5
			for i := 0; i < rounds; i++ {
				for _, k := range keys {
					if v, ok, err := s.Get(th, k); err != nil || !ok || !bytes.Equal(v, k) {
						t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
					}
				}
				if _, ok, _ := s.Get(th, []byte("never-stored")); ok {
					t.Fatal("absent key found")
				}
			}
			d := r.Engine().Snapshot().Sub(before)
			n := uint64(rounds * (len(keys) + 1))
			if d.ReadOnly != n || d.Commits != n || d.Starts != n {
				t.Fatalf("%d gets: %d read-only commits, %d commits, %d starts; want all equal", n, d.ReadOnly, d.Commits, d.Starts)
			}
		})
	}
}

// Two threads reading one shard share every line they touch and write
// none, so under the HTM neither can doom the other.
func TestConcurrentGetsDoNotConflict(t *testing.T) {
	r := newRT(tle.PolicyHTMCondVar)
	s := New(r, Config{Shards: 1})
	th := r.NewThread()
	keys := residentKeys(t, s, th, 64)
	th.Release()
	before := r.Engine().Snapshot()
	const threads, per = 2, 20_000
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := r.NewThread()
			defer wth.Release()
			var buf []byte
			start.Wait()
			for i := 0; i < per; i++ {
				var ok bool
				var err error
				buf, _, ok, err = s.GetItemAppend(wth, keys[(i+w*31)%len(keys)], buf[:0])
				if err != nil || !ok {
					t.Errorf("Get: %v, %v", ok, err)
					return
				}
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	d := r.Engine().Snapshot().Sub(before)
	if d.TotalAborts() != 0 || d.SerialRuns != 0 {
		t.Fatalf("%d concurrent gets on one shard: %v", threads*per, d)
	}
	if d.ReadOnly != threads*per {
		t.Fatalf("read-only commits = %d, want %d", d.ReadOnly, threads*per)
	}
}

// The hit/miss counters live outside the transaction, so they must count
// per get and not per attempt: with the injector forcing aborts and serial
// entries into 8 threads' gets, Gets and Hits still come out exact, and a
// get that is refused before its critical section counts nothing.
func TestGetCountersExactUnderChaos(t *testing.T) {
	for _, p := range elided {
		t.Run(p.String(), func(t *testing.T) {
			inj := chaos.New(chaos.Config{Seed: 20, Rates: chaos.Rates{
				chaos.STMValidate: 100_000,
				chaos.HTMConflict: 20_000,
				chaos.SerialEntry: 20_000,
			}})
			r := tle.New(p, tle.Config{
				MemWords:      1 << 20,
				HTM:           htm.Config{EventAbortPerMillion: -1},
				FaultInjector: inj,
			})
			s := New(r, Config{Shards: 2})
			th := r.NewThread()
			keys := residentKeys(t, s, th, 32)
			st0, err := s.Stats(th)
			if err != nil {
				t.Fatal(err)
			}
			before := r.Engine().Snapshot()
			const threads, per = 8, 600 // per thread: per hits, per misses, per/10 refused
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wth := r.NewThread()
					defer wth.Release()
					for i := 0; i < per; i++ {
						if _, ok, err := s.Get(wth, keys[(i+w)%len(keys)]); err != nil || !ok {
							t.Errorf("hit: %v, %v", ok, err)
							return
						}
						if _, ok, err := s.Get(wth, []byte(fmt.Sprintf("absent-%d-%d", w, i))); err != nil || ok {
							t.Errorf("miss: %v, %v", ok, err)
							return
						}
						if i%10 == 0 {
							if _, _, err := s.Get(wth, nil); err != ErrBadKey {
								t.Errorf("empty key: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			d := r.Engine().Snapshot().Sub(before)
			if d.TotalAborts() == 0 || d.SerialRuns == 0 {
				t.Fatalf("the injector forced no retry (%v): the test exercised nothing", d)
			}
			st, err := s.Stats(th)
			if err != nil {
				t.Fatal(err)
			}
			if gets, hits := st.Gets-st0.Gets, st.Hits-st0.Hits; gets != 2*threads*per || hits != threads*per {
				t.Fatalf("after %d attempts for %d gets: Gets +%d, Hits +%d; want +%d, +%d", d.Starts, 2*threads*per, gets, hits, 2*threads*per, threads*per)
			}
			var perShard Stats
			for i := 0; i < s.ShardCount(); i++ {
				ss, err := s.ShardStats(th, i)
				if err != nil {
					t.Fatal(err)
				}
				perShard.Gets += ss.Gets
				perShard.Hits += ss.Hits
			}
			if perShard.Gets != st.Gets || perShard.Hits != st.Hits {
				t.Fatalf("ShardStats sum to %d/%d, Stats says %d/%d", perShard.Gets, perShard.Hits, st.Gets, st.Hits)
			}
		})
	}
}

// dumpFlags pulls key's flags field out of a DumpShard blob.
func dumpFlags(t *testing.T, blob, key []byte) uint32 {
	t.Helper()
	n := binary.LittleEndian.Uint32(blob)
	b := blob[4:]
	for i := uint32(0); i < n; i++ {
		kl := binary.LittleEndian.Uint32(b)
		k := b[4 : 4+kl]
		b = b[4+kl:]
		flags := binary.LittleEndian.Uint32(b)
		vl := binary.LittleEndian.Uint32(b[12:])
		b = b[16+vl:]
		if bytes.Equal(k, key) {
			return flags
		}
	}
	t.Fatalf("%q not in dump", key)
	return 0
}

// The referenced bit shares a word with the client's flags and must never
// leak into them: flags with every bit set round-trip exactly through get,
// gets, incr (both paths), DumpShard and a WAL replay of a referenced item,
// and an item that incr reallocates starts unreferenced like any stored one.
func TestReferencedBitStaysOutOfClientFlags(t *testing.T) {
	for _, p := range tle.Policies {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			r, s, l, _ := openStoreWAL(t, p, dir, Config{Shards: 2})
			th := r.NewThread()
			const flags = 0xFFFFFFFF
			key := []byte("n")
			if err := s.SetItem(th, key, []byte("98"), flags); err != nil {
				t.Fatal(err)
			}
			if w := rawFlags(t, s, th, key); w != flags {
				t.Fatalf("stored item's flags word = %#x, want %#x (unreferenced)", w, uint64(flags))
			}
			for i := 0; i < 2; i++ { // the hit that sets the bit, and one that finds it set
				it, ok, err := s.GetItem(th, key)
				if err != nil || !ok || it.Flags != flags || it.CAS == 0 {
					t.Fatalf("GetItem #%d = %+v, %v, %v", i, it, ok, err)
				}
			}
			if w := rawFlags(t, s, th, key); w != flags|itReferenced {
				t.Fatalf("after a hit the flags word = %#x, want %#x", w, uint64(flags|itReferenced))
			}
			// 98+1: same width, in place. 99+1: a digit more, reallocated.
			for _, want := range []uint64{99, 100} {
				if v, st, err := s.Incr(th, key, 1, false); err != nil || st != IncrStored || v != want {
					t.Fatalf("Incr = %d, %v, %v; want %d", v, st, err, want)
				}
			}
			if w := rawFlags(t, s, th, key); w != flags {
				t.Fatalf("reallocated item's flags word = %#x, want %#x (unreferenced)", w, uint64(flags))
			}
			if it, _, _ := s.GetItem(th, key); it.Flags != flags || string(it.Value) != "100" {
				t.Fatalf("after incr = %+v", it)
			}
			blob, err := s.DumpShard(th, s.ShardFor(key))
			if err != nil {
				t.Fatal(err)
			}
			if f := dumpFlags(t, blob, key); f != flags {
				t.Fatalf("DumpShard flags = %#x", f)
			}
			// Same again through MutateBatch: the incr's redo record is
			// staged there from the flags applyIncr returns.
			var sc BatchScratch
			res := make([]BatchResult, 1)
			if err := s.MutateBatch(th, []BatchOp{{Verb: BatchIncr, Key: key, Delta: 900}}, res, &sc); err != nil {
				t.Fatal(err)
			}
			if err := res[0].Durable.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r2, s2, l2, n := openStoreWAL(t, p, dir, Config{Shards: 2})
			defer l2.Close()
			if n == 0 {
				t.Fatal("nothing replayed")
			}
			it, ok, err := s2.GetItem(r2.NewThread(), key)
			if err != nil || !ok || it.Flags != flags || string(it.Value) != "1000" {
				t.Fatalf("after replay = %+v, %v, %v", it, ok, err)
			}
		})
	}
}

// BenchmarkGetParallel runs gets from GOMAXPROCS goroutines over a warm
// 8-shard store. Read it at -cpu 1,2: ns/op is wall time over all
// goroutines' gets, so a get that writes nothing shared scales and one
// that does not shows up in aborts/op.
func BenchmarkGetParallel(b *testing.B) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVar, tle.PolicySTMCondVarNoQ, tle.PolicyHTMCondVar} {
		b.Run(p.String(), func(b *testing.B) {
			r := tle.New(p, tle.Config{MemWords: 1 << 22, HTM: htm.Config{EventAbortPerMillion: -1}})
			s := New(r, Config{Shards: 8, MaxItemsPerShard: 4096})
			th := r.NewThread()
			keys := residentKeys(b, s, th, 4096)
			th.Release()
			before := r.Engine().Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				wth := r.NewThread()
				defer wth.Release()
				var buf []byte
				for i := int(wth.ID()) * 977; pb.Next(); i++ {
					buf, _, _, _ = s.GetItemAppend(wth, keys[i*7919%len(keys)], buf[:0])
				}
			})
			b.StopTimer()
			d := r.Engine().Snapshot().Sub(before)
			b.ReportMetric(float64(d.ConflictAborts())/float64(b.N), "aborts/op")
			b.ReportMetric(float64(d.ReadOnly)/float64(b.N), "ro-commits/op")
		})
	}
}
