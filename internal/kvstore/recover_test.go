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
	"gotle/internal/logrec"
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
// numbered in order: a MANIFEST from wal.Open and one segment, as a process
// killed after its last ack leaves them (a Close would compact them).
func writeLog(t testing.TB, dir string, s *Store, recs []wal.Record) {
	t.Helper()
	if _, err := wal.Open(dir, s.ShardCount(), wal.Options{}); err != nil {
		t.Fatal(err)
	}
	seq := make([]uint64, s.ShardCount())
	var seg []byte
	for _, r := range recs {
		sh := s.ShardFor(r.Key)
		seq[sh]++
		r.Seq, r.Shard = seq[sh], uint16(sh)
		seg = logrec.AppendRecord(seg, r)
	}
	if err := os.WriteFile(filepath.Join(dir, "w-00000000.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayCase is one log TestRecoverMatchesApply replays, into stores of
// one shape.
type replayCase struct {
	name          string
	recs          []wal.Record
	shards, items int
	prefill       int  // keys key:0.. set before the replay; their shards apply as read
	evicts        bool // full replay evicts
	applyAll      bool // Recover applies every set, as full replay does
	refused       bool // the log holds a record the store refuses
	arena         int  // replayArenaBytes, when not the default
}

// TestRecoverMatchesApply replays one log twice, through Recover and
// through per-record Apply, into stores of one shape. The shards must dump
// byte for byte alike (values, flags, CAS tokens), keep one recency order
// and item count, and continue the log at the same sequence number and CAS
// token. The logs: past capacity, with values that overflow the HTM write
// budget and with deletes, long and of two full batches plus one record;
// overwrites below capacity, where Recover applies fewer sets than the log
// holds; a horizon in the middle; inserts past capacity, then deletes of
// the newest keys, which full replay's evictions do not give back; a store
// that held items in some shards, which the log deletes; a refused record
// between two overwrites of one key; an index and an arena too small for
// the log; deletes that cancel held-back sets on a shard that would be
// full without them; and distinct keys that end the holding back before
// any horizon.
func TestRecoverMatchesApply(t *testing.T) {
	v := func(n int) []byte { return bytes.Repeat([]byte("v"), n) }
	set := func(k string, n int) wal.Record {
		return wal.Record{Op: wal.OpSet, Key: []byte(k), Val: v(n), Flags: uint32(n)}
	}
	del := func(k string) wal.Record { return wal.Record{Op: wal.OpDelete, Key: []byte(k)} }
	last := func(recs []wal.Record) []wal.Record {
		recs[len(recs)-1] = wal.Record{Op: wal.OpSet, Key: []byte("key:last"), Val: bytes.Repeat([]byte("z"), 2048), Flags: 7}
		return recs
	}
	refused := []wal.Record{set("twice", 10), set("a", 3), set("twice", 20)}
	refused = append(refused, wal.Record{Op: wal.OpSet, Key: bytes.Repeat([]byte("k"), MaxKeyLen+1)}, set("twice", 30), set("b", 3))
	var churn []wal.Record // a thousand keys, at most five live
	for i := 0; i < 1000; i++ {
		churn = append(churn, set(fmt.Sprintf("c:%d", i), 64))
		if i >= 5 {
			churn = append(churn, del(fmt.Sprintf("c:%d", i-5)))
		}
	}
	var shrink []wal.Record // past capacity, then the newest keys go
	for i := 0; i < 400; i++ {
		shrink = append(shrink, set(fmt.Sprintf("e:%d", i), 64))
	}
	for i := 399; i >= 300; i-- {
		shrink = append(shrink, del(fmt.Sprintf("e:%d", i)))
	}
	probe := distinctLog(2400) // then overwrites of the same keys
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		probe = append(probe, set(fmt.Sprintf("d:%d", rng.Intn(2400)), 8+i%100))
	}
	cases := []replayCase{
		{name: "n=3000", recs: last(replayLog(1, 3000, 600)), shards: 4, items: 64, evicts: true},
		{name: "n=129", recs: last(replayLog(1, 2*replayBatch+1, 80)), shards: 4, items: 8, evicts: true},
		{name: "overwrites", recs: last(replayLog(3, 3000, 150)), shards: 4, items: 64},
		{name: "horizon-mid", recs: last(append(replayLog(4, 1500, 100), replayLog(5, 1500, 5000)...)), shards: 4, items: 64, evicts: true},
		{name: "horizon-then-deletes", recs: shrink, shards: 4, items: 64, evicts: true, applyAll: true},
		{name: "prefilled", recs: last(append(replayLog(6, 2000, 160), del("key:0"), del("key:1"), set("", 0))), shards: 4, items: 64, prefill: 2},
		{name: "refused", recs: refused, shards: 4, items: 64, refused: true},
		{name: "index-full", recs: churn, shards: 4, items: 16},
		{name: "arena-full", recs: last(replayLog(7, 3000, 150)), shards: 4, items: 64, arena: 32 << 10},
		// The deletes of P and Q cancel their held-back sets, so C and the
		// second P fit beside R on a shard of three items: no horizon.
		{name: "deletes-cancel", recs: []wal.Record{set("R", 8192), set("P", 8192), set("Q", 8), set("Q", 8192),
			del("P"), set("C", 8), del("Q"), set("P", 8)}, shards: 1, items: 3},
		// Distinct keys, then overwrites of them: the shards stop holding
		// back after replayProbe records, none superseded, before any
		// horizon.
		{name: "probe", recs: probe, shards: 4, items: 1024, applyAll: true},
	}
	for _, rt := range replayRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					if tc.arena != 0 {
						defer func(was int) { replayArenaBytes = was }(replayArenaBytes)
						replayArenaBytes = tc.arena
					}
					recoverMatchesApply(t, rt.new, tc)
				})
			}
		})
	}
}

func recoverMatchesApply(t *testing.T, newRT func() *tle.Runtime, tc replayCase) {
	recs := tc.recs
	n := len(recs)
	var stores [2]*Store
	var logs [2]*wal.Log
	var ths [2]*tm.Thread
	var gots [2]int
	for i := range stores {
		r := newRT()
		s := New(r, Config{Shards: tc.shards, MaxItemsPerShard: tc.items})
		th := r.NewThread()
		for k := 0; k < tc.prefill; k++ {
			if err := s.SetItem(th, []byte(fmt.Sprintf("key:%d", k)), []byte("prefilled"), 9); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		writeLog(t, dir, s, recs)
		l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if i == 0 {
			gots[i], err = s.Recover(th, l)
		} else {
			gots[i], err = l.Recover(func(_ int, rec wal.Record) error { return s.Apply(th, rec) })
		}
		if tc.refused {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("replay %d over a refused record: %v", i, err)
			}
		} else if err != nil || gots[i] != n {
			t.Fatalf("replay %d: %d records, %v; want %d", i, gots[i], err, n)
		}
		if err := s.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		stores[i], logs[i], ths[i] = s, l, th
	}
	if gots[0] != gots[1] {
		t.Fatalf("Recover read %d records, Apply's replay %d", gots[0], gots[1])
	}
	if !tc.refused && recs[n-1].Op == wal.OpSet {
		if v, ok, err := stores[0].Get(ths[0], recs[n-1].Key); err != nil || !ok || !bytes.Equal(v, recs[n-1].Val) {
			t.Fatalf("the last record (%d B) did not replay: %d B, %v, %v", len(recs[n-1].Val), len(v), ok, err)
		}
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
	var sts [2]Stats
	var lens [2]int
	for i, s := range stores {
		var err error
		if sts[i], err = s.Stats(ths[i]); err != nil {
			t.Fatal(err)
		}
		if lens[i], err = s.Len(ths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if lens[0] != lens[1] {
		t.Fatalf("Recover left %d items, Apply %d", lens[0], lens[1])
	}
	if (sts[1].Evictions > 0) != tc.evicts {
		t.Fatalf("full replay evicted %d items; the case expects evictions: %v", sts[1].Evictions, tc.evicts)
	}
	if tc.applyAll != (sts[0].Sets == sts[1].Sets) {
		t.Fatalf("Recover applied %d sets, per-record Apply %d", sts[0].Sets, sts[1].Sets)
	}
	if tc.refused {
		return // the log was never armed: nothing continues it
	}
	key := []byte("key:next")
	sh := stores[0].ShardFor(key)
	var seqs [2]uint64
	var cass [2]uint64
	for i, s := range stores {
		if err := s.Set(ths[i], key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		seqs[i] = logs[i].LastSeq(sh)
		it, _, err := s.GetItem(ths[i], key)
		if err != nil {
			t.Fatal(err)
		}
		cass[i] = it.CAS
	}
	if seqs[0] != seqs[1] || seqs[0] == 0 {
		t.Fatalf("next set's seq after Recover %d, after Apply %d", seqs[0], seqs[1])
	}
	if cass[0] != cass[1] {
		t.Fatalf("next set's CAS after Recover %d, after Apply %d", cass[0], cass[1])
	}
}

// distinctLog returns n sets of distinct keys: 64 B values, one in four
// 2 KiB.
func distinctLog(n int) []wal.Record {
	recs := make([]wal.Record, n)
	for i := range recs {
		size := 64
		if i%4 == 0 {
			size = 2048
		}
		recs[i] = wal.Record{Op: wal.OpSet, Key: []byte(fmt.Sprintf("d:%d", i)), Val: bytes.Repeat([]byte("d"), size)}
	}
	return recs
}

// TestRecoverRunsIrrevocably pins how Recover replays: every section is a
// serial one that commits, one per replayBatch applied records, with no
// speculative attempt, so nothing aborts, not even a 2 KiB value over a
// 24-line HTM write budget. On a log of distinct keys past capacity every
// record applies. On an overwrite-heavy log below capacity only each key's
// last record applies, and only if it is a set: the store started empty.
func TestRecoverRunsIrrevocably(t *testing.T) {
	const n = 2000
	lastSets := func(recs []wal.Record) int {
		last := map[string]wal.Op{}
		for _, r := range recs {
			last[string(r.Key)] = r.Op
		}
		sets := 0
		for _, op := range last {
			if op == wal.OpSet {
				sets++
			}
		}
		return sets
	}
	logs := []struct {
		name    string
		recs    []wal.Record
		applied int
	}{
		{"distinct", distinctLog(n), n},
		{"overwrites", replayLog(2, n, 150), lastSets(replayLog(2, n, 150))},
	}
	for _, rt := range replayRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			for _, lc := range logs {
				if !slices.ContainsFunc(lc.recs, func(r wal.Record) bool { return len(r.Val) == 2048 }) {
					t.Fatal("the log holds no 2 KiB value")
				}
				want := uint64((lc.applied + replayBatch - 1) / replayBatch)
				t.Run(lc.name, func(t *testing.T) {
					r := rt.new()
					s := New(r, Config{Shards: 4, MaxItemsPerShard: 64})
					dir := t.TempDir()
					writeLog(t, dir, s, lc.recs)
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
						t.Fatalf("replay of %d records, %d to apply: serial runs %d, commits %d, starts %d, aborts %v; want %d, %d, %d, none",
							n, lc.applied, d.SerialRuns, d.Commits, d.Starts, d.Aborts, want, want, want)
					}
					st, err := s.Stats(th)
					if err != nil {
						t.Fatal(err)
					}
					if st.Sets+st.Deletes != uint64(lc.applied) {
						t.Fatalf("%d sets and %d deletes applied, want %d records", st.Sets, st.Deletes, lc.applied)
					}
				})
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

// BenchmarkRecoverStore replays a log into a store of tleserved's shape (8
// shards of 2 048 items on its hybrid htm-cv runtime): apply is the
// per-record transactional Apply, recover is Store.Recover. The plain log
// is 50 000 records, Zipf 1.1 over 32 768 keys, six sets of 64 B to one
// delete; the distinct one sets 50 000 distinct keys, so Recover skips
// nothing; the large one is 10 000 records of the plain shape with values
// of 4 to 8 KiB, which fill the arena after a few hundred keys.
// compacted-recover is Store.Recover of the log's compacted form, the
// base a Close leaves: its ns/op is the whole recovery's, comparable with
// recover's, and its ns/rec is per base record.
func BenchmarkRecoverStore(b *testing.B) {
	newStore := func(words int) func() *Store {
		return func() *Store {
			r := tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: words, Hybrid: true, DeferredReclaim: true,
				HTM: htm.Config{WriteCapacityLines: 24}})
			return New(r, Config{Shards: 8, MaxItemsPerShard: 2048})
		}
	}
	zipfLog := func(n int, val func() []byte) []wal.Record {
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.1, 1, 32767)
		recs := make([]wal.Record, n)
		for i := range recs {
			recs[i] = wal.Record{Op: wal.OpSet, Key: []byte(fmt.Sprintf("key:%d", zipf.Uint64())), Val: val()}
			if rng.Intn(7) == 0 {
				recs[i].Op, recs[i].Val = wal.OpDelete, nil
			}
		}
		return recs
	}
	small := bytes.Repeat([]byte("v"), 64)
	big := bytes.Repeat([]byte("V"), MaxValLen)
	sizes := rand.New(rand.NewSource(2))
	distinct := make([]wal.Record, 50000)
	for i := range distinct {
		distinct[i] = wal.Record{Op: wal.OpSet, Key: []byte(fmt.Sprintf("key:%d", i)), Val: small}
	}
	for _, lg := range []struct {
		prefix   string
		recs     []wal.Record
		newStore func() *Store
	}{
		{"", zipfLog(50000, func() []byte { return small }), newStore(1 << 21)},
		{"distinct-", distinct, newStore(1 << 21)},
		{"large-", zipfLog(10000, func() []byte { return big[:4096+sizes.Intn(4097)] }), newStore(1 << 23)},
	} {
		seed := filepath.Join(b.TempDir(), "seed")
		writeLog(b, seed, lg.newStore(), lg.recs)
		base := filepath.Join(b.TempDir(), "base")
		compactLog(b, seed, base, lg.newStore().ShardCount())
		for _, mode := range []string{"apply", "recover", "compacted-recover"} {
			b.Run(lg.prefix+mode, func(b *testing.B) {
				n, seed := len(lg.recs), seed
				if mode == "compacted-recover" {
					n, seed = baseRecords(b, base, lg.newStore().ShardCount()), base
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir := filepath.Join(b.TempDir(), "wal")
					if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
						b.Fatal(err)
					}
					s := lg.newStore()
					l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
					if err != nil {
						b.Fatal(err)
					}
					th := s.r.NewThread()
					b.StartTimer()
					var got int
					if mode != "apply" {
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
}

// baseRecords reports the records of the compacted log in dir: its base's.
func baseRecords(tb testing.TB, dir string, shards int) int {
	tb.Helper()
	l, err := wal.Open(dir, shards, wal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := l.Recover(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}
