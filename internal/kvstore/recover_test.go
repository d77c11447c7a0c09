package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// replayRuntimes are the runtimes recovery is checked on: tleserved's
// (hybrid, htm-cv, a 24-line write budget a 2 KiB value overflows,
// deferred reclamation) and an STM one.
var replayRuntimes = []struct {
	name string
	new  func() *tle.Runtime
}{
	{"htm-cv-24", func() *tle.Runtime {
		return tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: 1 << 21, Hybrid: true, DeferredReclaim: true,
			HTM: htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: -1}})
	}},
	{"stm-cv-noq", func() *tle.Runtime {
		return tle.New(tle.PolicySTMCondVarNoQ, tle.Config{MemWords: 1 << 21})
	}},
}

// replayLog returns n log records over keys keys: 64 B and 2 KiB values,
// one delete in seven.
func replayLog(seed int64, n, keys int) []wal.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]wal.Record, n)
	for i := range recs {
		k := []byte(fmt.Sprintf("key:%d", rng.Intn(keys)))
		if rng.Intn(7) == 0 {
			recs[i] = wal.Record{Op: wal.OpDelete, Key: k}
			continue
		}
		size := 64
		if rng.Intn(4) == 0 {
			size = 2048
		}
		recs[i] = wal.Record{Op: wal.OpSet, Key: k, Val: bytes.Repeat([]byte{byte('a' + i%26)}, size), Flags: uint32(i)}
	}
	return recs
}

// writeLog writes recs to a fresh log in dir, each on its key's shard of s,
// numbered in order.
func writeLog(t testing.TB, dir string, s *Store, recs []wal.Record) {
	t.Helper()
	l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatal(err)
	}
	seq := make([]uint64, s.ShardCount())
	for _, r := range recs {
		sh := s.ShardFor(r.Key)
		seq[sh]++
		r.Seq = seq[sh]
		l.Append(sh, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMatchesApply replays one log twice, through Recover and
// through per-record Apply, into stores of one shape: past capacity, with
// values that overflow the HTM write budget and with deletes. The shards
// must dump byte for byte alike, keep one recency order, and continue the
// log at the same sequence number. It runs on a long log and on one of two
// full batches plus one record, a 2 KiB value.
func TestRecoverMatchesApply(t *testing.T) {
	for _, rt := range replayRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			for _, tc := range []struct{ n, keys, items int }{{3000, 600, 64}, {2*replayBatch + 1, 80, 8}} {
				t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
					recs := replayLog(1, tc.n, tc.keys)
					recs[tc.n-1] = wal.Record{Op: wal.OpSet, Key: []byte("key:last"), Val: bytes.Repeat([]byte("z"), 2048), Flags: 7}
					recoverMatchesApply(t, rt.new, recs, tc.items)
				})
			}
		})
	}
}

func recoverMatchesApply(t *testing.T, newRT func() *tle.Runtime, recs []wal.Record, items int) {
	n := len(recs)
	var stores [2]*Store
	var logs [2]*wal.Log
	var ths [2]*tm.Thread
	for i := range stores {
		r := newRT()
		s := New(r, Config{Shards: 4, MaxItemsPerShard: items})
		dir := t.TempDir()
		writeLog(t, dir, s, recs)
		l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		th := r.NewThread()
		var got int
		if i == 0 {
			got, err = s.Recover(th, l)
		} else {
			got, err = l.Recover(func(_ int, rec wal.Record) error { return s.Apply(th, rec) })
		}
		if err != nil || got != n {
			t.Fatalf("replay %d: %d records, %v; want %d", i, got, err, n)
		}
		if err := s.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		stores[i], logs[i], ths[i] = s, l, th
	}
	if v, ok, err := stores[0].Get(ths[0], recs[n-1].Key); err != nil || !ok || !bytes.Equal(v, recs[n-1].Val) {
		t.Fatalf("the last record (%d B) did not replay: %d B, %v, %v", len(recs[n-1].Val), len(v), ok, err)
	}
	for sh := 0; sh < stores[0].ShardCount(); sh++ {
		var dumps [2][]byte
		var lrus [2][]string
		for i, s := range stores {
			var err error
			if dumps[i], err = s.DumpShard(ths[i], sh); err != nil {
				t.Fatal(err)
			}
			if lrus[i], err = s.LRUKeys(ths[i], sh); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(dumps[0], dumps[1]) {
			t.Fatalf("shard %d: Recover's dump (%d B) differs from Apply's (%d B)", sh, len(dumps[0]), len(dumps[1]))
		}
		if !slices.Equal(lrus[0], lrus[1]) {
			t.Fatalf("shard %d: recency order differs:\n%v\n%v", sh, lrus[0], lrus[1])
		}
	}
	if st, err := stores[0].Stats(ths[0]); err != nil || st.Evictions == 0 {
		t.Fatalf("the log never filled a shard (evictions %d, %v): no eviction to compare", st.Evictions, err)
	}
	key := []byte("key:next")
	sh := stores[0].ShardFor(key)
	var seqs [2]uint64
	for i, s := range stores {
		if err := s.Set(ths[i], key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		seqs[i] = logs[i].LastSeq(sh)
	}
	if seqs[0] != seqs[1] || seqs[0] == 0 {
		t.Fatalf("next set's seq after Recover %d, after Apply %d", seqs[0], seqs[1])
	}
}

// TestRecoverRunsIrrevocably pins how Recover replays: every section is a
// serial one that commits, one per replayBatch records, with no speculative
// attempt, so nothing aborts, not even a 2 KiB value over a 24-line HTM
// write budget.
func TestRecoverRunsIrrevocably(t *testing.T) {
	const n = 2000
	recs := replayLog(2, n, 300)
	if !slices.ContainsFunc(recs, func(r wal.Record) bool { return len(r.Val) == 2048 }) {
		t.Fatal("the log holds no 2 KiB value")
	}
	want := uint64((n + replayBatch - 1) / replayBatch)
	for _, rt := range replayRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			r := rt.new()
			s := New(r, Config{Shards: 4, MaxItemsPerShard: 64})
			dir := t.TempDir()
			writeLog(t, dir, s, recs)
			l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			th := r.NewThread()
			before := r.Engine().Snapshot()
			if got, err := s.Recover(th, l); err != nil || got != n {
				t.Fatalf("Recover = %d, %v; want %d", got, err, n)
			}
			d := r.Engine().Snapshot().Sub(before)
			if d.SerialRuns != want || d.Commits != want || d.Starts != want || d.TotalAborts() != 0 {
				t.Fatalf("replay of %d records: serial runs %d, commits %d, starts %d, aborts %v; want %d, %d, %d, none",
					n, d.SerialRuns, d.Commits, d.Starts, d.Aborts, want, want, want)
			}
		})
	}
}

// TestRecoverRefusedRecord: a record the store refuses (a key past
// MaxKeyLen) ends the replay with the store's error, naming its shard and
// seq, after the records before it applied, batch and all, and before the
// log opens a segment for appends. The refusal comes before the record
// joins a batch, so no serial section has to cancel after writes.
func TestRecoverRefusedRecord(t *testing.T) {
	long := []byte(strings.Repeat("k", MaxKeyLen+1))
	for _, rt := range replayRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			for _, tc := range []struct{ n, refused int }{{3, 2}, {80, 70}} {
				recs := make([]wal.Record, tc.n)
				for i := range recs {
					recs[i] = wal.Record{Op: wal.OpSet, Key: []byte(fmt.Sprintf("rec:%d", i+1)), Val: []byte("v")}
				}
				recs[tc.refused-1].Key = long
				t.Run(fmt.Sprintf("%d-of-%d", tc.refused, tc.n), func(t *testing.T) {
					r := rt.new()
					s := New(r, Config{Shards: 4})
					dir := t.TempDir()
					writeLog(t, dir, s, recs)
					seq := 0
					for _, rec := range recs[:tc.refused] {
						if s.ShardFor(rec.Key) == s.ShardFor(long) {
							seq++
						}
					}
					segs, _ := os.ReadDir(dir)
					l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					th := r.NewThread()
					_, err = s.Recover(th, l)
					if !errors.Is(err, ErrBadKey) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d seq %d:", s.ShardFor(long), seq)) {
						t.Fatalf("Recover over a refused record: %v, want ErrBadKey at shard %d seq %d", err, s.ShardFor(long), seq)
					}
					for i, rec := range recs {
						if i+1 == tc.refused {
							continue
						}
						if _, ok, _ := s.Get(th, rec.Key); ok != (i+1 < tc.refused) {
							t.Fatalf("record %d of %d (refused %d): present %v", i+1, tc.n, tc.refused, ok)
						}
					}
					if after, _ := os.ReadDir(dir); len(after) != len(segs) {
						t.Fatalf("the failed replay opened a segment: %d files, was %d", len(after), len(segs))
					}
				})
			}
		})
	}
}

// BenchmarkRecoverStore replays one 50 000-record log (Zipf 1.1 over 32 768
// keys, six sets of 64 B to one delete) into a store of tleserved's shape
// (8 shards of 2 048 items on its hybrid htm-cv runtime): apply is the
// per-record transactional Apply, recover is Store.Recover.
func BenchmarkRecoverStore(b *testing.B) {
	const n = 50000
	newStore := func() *Store {
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: 1 << 21, Hybrid: true, DeferredReclaim: true,
			HTM: htm.Config{WriteCapacityLines: 24}})
		return New(r, Config{Shards: 8, MaxItemsPerShard: 2048})
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 32767)
	val := bytes.Repeat([]byte("v"), 64)
	recs := make([]wal.Record, n)
	for i := range recs {
		recs[i] = wal.Record{Op: wal.OpSet, Key: []byte(fmt.Sprintf("key:%d", zipf.Uint64())), Val: val}
		if rng.Intn(7) == 0 {
			recs[i].Op, recs[i].Val = wal.OpDelete, nil
		}
	}
	seed := filepath.Join(b.TempDir(), "seed")
	writeLog(b, seed, newStore(), recs)

	for _, mode := range []string{"apply", "recover"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "wal")
				if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
					b.Fatal(err)
				}
				s := newStore()
				l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
				if err != nil {
					b.Fatal(err)
				}
				th := s.r.NewThread()
				b.StartTimer()
				var got int
				if mode == "recover" {
					got, err = s.Recover(th, l)
				} else {
					got, err = l.Recover(func(_ int, rec wal.Record) error { return s.Apply(th, rec) })
				}
				b.StopTimer()
				if err != nil || got != n {
					b.Fatalf("%d records, %v; want %d", got, err, n)
				}
				th.Release()
				l.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
