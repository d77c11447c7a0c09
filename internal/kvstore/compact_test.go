package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// compactLog copies the log in src to dst and compacts the copy: an empty
// recovery of its segments, then Close.
func compactLog(t testing.TB, src, dst string, shards int) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dst, shards, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// dumpMap splits a DumpShard blob into key → flags, CAS and value bytes.
func dumpMap(b []byte) map[string]string {
	m := map[string]string{}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	for ; n > 0; n-- {
		kl := binary.LittleEndian.Uint32(b)
		key := string(b[4 : 4+kl])
		b = b[4+kl:]
		vl := binary.LittleEndian.Uint32(b[12:])
		m[key] = string(b[:16+vl])
		b = b[16+vl:]
	}
	return m
}

// TestRecoverCompactedMatchesApply recovers each generated log twice: every
// record through Apply, and the log's compacted form through Recover. In a
// shard that full replay never evicts from, the two must dump alike (values,
// flags, CAS tokens), keep one recency order and one item count. In one it
// evicts from, full replay may have evicted a key that a later delete would
// have made room for, so the compacted recovery may hold more: every key
// both hold must match, and every key the compacted recovery holds must be
// its last set in the log, never a deleted or superseded value. Either way
// the next set continues at the same sequence number and CAS token.
func TestRecoverCompactedMatchesApply(t *testing.T) {
	for _, tc := range []struct {
		name   string
		recs   []wal.Record
		items  int
		evicts bool // full replay evicts in some shard
	}{
		{name: "below-capacity", recs: replayLog(11, 3000, 150), items: 64},
		{name: "deletes-below-capacity", recs: replayLog(12, 5000, 240), items: 64},
		{name: "past-capacity", recs: replayLog(13, 3000, 600), items: 64, evicts: true},
		{name: "at-the-edge", recs: replayLog(14, 4000, 300), items: 64, evicts: true},
	} {
		for _, rt := range replayRuntimes {
			t.Run(tc.name+"/"+rt.name, func(t *testing.T) {
				var stores [2]*Store
				var ths [2]*tm.Thread
				var logs [2]*wal.Log
				dir := filepath.Join(t.TempDir(), "log")
				for i := range stores {
					s := New(rt.new(), Config{Shards: 4, MaxItemsPerShard: tc.items})
					th := s.r.NewThread()
					d := dir
					if i == 0 {
						writeLog(t, dir, s, tc.recs)
					} else {
						d = filepath.Join(t.TempDir(), "compacted")
						compactLog(t, dir, d, s.ShardCount())
					}
					l, err := wal.Open(d, s.ShardCount(), wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { l.Close() })
					if i == 0 {
						_, err = l.Recover(func(_ int, rec wal.Record) error { return s.Apply(th, rec) })
					} else {
						_, err = s.Recover(th, l)
					}
					if err == nil {
						err = s.AttachWAL(l)
					}
					if err != nil {
						t.Fatal(err)
					}
					stores[i], ths[i], logs[i] = s, th, l
				}
				if got := logs[1].Stats(); got.Recovered >= uint64(len(tc.recs)) || got.BaseRecords != got.Recovered {
					t.Fatalf("the compacted log replayed %d records, %d in its base, of %d", got.Recovered, got.BaseRecords, len(tc.recs))
				}
				// Each key's last record, and each set's sequence number.
				last := map[string]string{}
				seq := make([]uint64, stores[0].ShardCount())
				for _, r := range tc.recs {
					sh := stores[0].ShardFor(r.Key)
					seq[sh]++
					if r.Op == wal.OpDelete {
						delete(last, string(r.Key))
						continue
					}
					var e [16]byte
					binary.LittleEndian.PutUint32(e[:], r.Flags)
					binary.LittleEndian.PutUint64(e[4:], seq[sh])
					binary.LittleEndian.PutUint32(e[12:], uint32(len(r.Val)))
					last[string(r.Key)] = string(e[:]) + string(r.Val)
				}
				evicted := 0
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
					full, comp := dumpMap(dumps[0]), dumpMap(dumps[1])
					for k, e := range comp {
						if last[k] != e {
							t.Fatalf("shard %d: the compacted recovery holds %q, which is not its last set", sh, k)
						}
						if f, ok := full[k]; ok && f != e {
							t.Fatalf("shard %d: %q differs between full and compacted recovery", sh, k)
						}
					}
					st, err := stores[0].ShardStats(ths[0], sh)
					if err != nil {
						t.Fatal(err)
					}
					if st.Evictions > 0 {
						evicted++
						continue
					}
					if !bytes.Equal(dumps[0], dumps[1]) || !slices.Equal(lrus[0], lrus[1]) {
						t.Fatalf("shard %d, never evicted from: dumps or recency differ:\n%v\n%v", sh, lrus[0], lrus[1])
					}
				}
				if (evicted > 0) != tc.evicts {
					t.Fatalf("full replay evicted in %d shards; the case expects evictions: %v", evicted, tc.evicts)
				}
				if !tc.evicts {
					var lens [2]int
					for i, s := range stores {
						var err error
						if lens[i], err = s.Len(ths[i]); err != nil {
							t.Fatal(err)
						}
					}
					if lens[0] != lens[1] {
						t.Fatalf("full replay left %d items, the compacted one %d", lens[0], lens[1])
					}
				}
				key := []byte("key:next")
				var cas [2]uint64
				for i, s := range stores {
					if err := s.Set(ths[i], key, []byte("v")); err != nil {
						t.Fatal(err)
					}
					it, _, err := s.GetItem(ths[i], key)
					if err != nil {
						t.Fatal(err)
					}
					cas[i] = it.CAS
				}
				if cas[0] != cas[1] || cas[0] != logs[0].LastSeq(stores[0].ShardFor(key)) {
					t.Fatalf("next set's CAS %d after full replay, %d after the compacted one", cas[0], cas[1])
				}
			})
		}
	}
}

// TestCASAboveEveryTokenAfterRestart: a set's CAS token is its shard
// sequence number, so the tokens of the items a compacted restart brings
// back are the ones they had, and the first set after it on a shard gets a
// token above every token the shard issued before it.
func TestCASAboveEveryTokenAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2}
	r, s, l, _ := openStoreWAL(t, tle.Policies[0], dir, cfg)
	th := r.NewThread()
	tokens := map[string]uint64{}
	top := make([]uint64, s.ShardCount())
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key:%d", i%37))
		if i%5 == 4 {
			if _, tk, err := s.DeleteD(th, key); err != nil || tk.Wait() != nil {
				t.Fatal(err)
			}
			delete(tokens, string(key))
			continue
		}
		tk, err := s.SetItemD(th, key, []byte(fmt.Sprintf("v%d", i)), 0)
		if err != nil || tk.Wait() != nil {
			t.Fatal(err)
		}
		it, _, err := s.GetItem(th, key)
		if err != nil {
			t.Fatal(err)
		}
		sh := s.ShardFor(key)
		tokens[string(key)], top[sh] = it.CAS, max(top[sh], it.CAS)
	}
	th.Release()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, s, l, n := openStoreWAL(t, tle.Policies[0], dir, cfg)
	defer l.Close()
	if n != len(tokens) || l.Stats().BaseRecords != uint64(n) {
		t.Fatalf("the restart replayed %d records, want the %d live keys from the base", n, len(tokens))
	}
	th = r.NewThread()
	defer th.Release()
	for k, want := range tokens {
		it, ok, err := s.GetItem(th, []byte(k))
		if err != nil || !ok || it.CAS != want {
			t.Fatalf("%s: CAS %d after the restart, %d before (%v %v)", k, it.CAS, want, ok, err)
		}
	}
	for _, k := range []string{"key:0", "key:1", "fresh"} {
		if err := s.Set(th, []byte(k), []byte("after")); err != nil {
			t.Fatal(err)
		}
		it, _, err := s.GetItem(th, []byte(k))
		if top := top[s.ShardFor([]byte(k))]; err != nil || it.CAS <= top {
			t.Fatalf("%s set after the restart got CAS %d; its shard's tokens before it reached %d (%v)", k, it.CAS, top, err)
		}
	}
}
