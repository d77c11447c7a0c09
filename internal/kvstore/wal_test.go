package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gotle/internal/logrec"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// openStoreWAL builds a store with an attached WAL in dir, replaying any
// existing segments first — the same recover-then-attach sequence the
// server uses at startup.
func openStoreWAL(t *testing.T, p tle.Policy, dir string, cfg Config) (*tle.Runtime, *Store, *wal.Log, int) {
	t.Helper()
	r := newRT(p)
	s := New(r, cfg)
	l, err := wal.Open(dir, s.ShardCount(), wal.Options{})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	th := r.NewThread()
	recovered, err := s.Recover(th, l)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := s.AttachWAL(l); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	return r, s, l, recovered
}

// TestWALRoundTripAcrossRestart drives a mixed workload through the
// durable mutators, closes the log, and rebuilds a fresh store from the
// segments alone. Every acked mutation must be reflected in the rebuilt
// store.
func TestWALRoundTripAcrossRestart(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			r, s, l, recovered := openStoreWAL(t, p, dir, Config{Shards: 4})
			if recovered != 0 {
				t.Fatalf("fresh dir recovered %d records", recovered)
			}
			th := r.NewThread()

			want := map[string]string{}
			rng := rand.New(rand.NewSource(7))
			var last wal.Ticket
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("key:%d", rng.Intn(60))
				switch rng.Intn(10) {
				case 0, 1:
					if _, tk, err := s.DeleteD(th, []byte(key)); err != nil {
						t.Fatal(err)
					} else {
						last = tk
					}
					delete(want, key)
				case 2:
					// Counter churn through both incr paths.
					ctr := fmt.Sprintf("ctr:%d", rng.Intn(4))
					if _, ok := want[ctr]; !ok {
						tk, err := s.SetItemD(th, []byte(ctr), []byte("9"), 3)
						if err != nil {
							t.Fatal(err)
						}
						last = tk
						want[ctr] = "9"
					}
					nv, st, err := s.Incr(th, []byte(ctr), 1, false)
					if err != nil || st != IncrStored {
						t.Fatalf("Incr: %v %v", st, err)
					}
					want[ctr] = fmt.Sprintf("%d", nv)
				default:
					val := fmt.Sprintf("v%d.%d", i, rng.Intn(1000))
					tk, err := s.SetItemD(th, []byte(key), []byte(val), uint32(i))
					if err != nil {
						t.Fatal(err)
					}
					last = tk
					want[key] = val
				}
			}
			if err := last.Wait(); err != nil {
				t.Fatalf("ticket wait: %v", err)
			}
			st := l.Stats()
			if st.Appends == 0 || st.Fsyncs == 0 {
				t.Fatalf("no WAL activity: %+v", st)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// "Restart": brand-new runtime + store, replay from disk.
			r2, s2, l2, rec2 := openStoreWAL(t, p, dir, Config{Shards: 4})
			defer l2.Close()
			if rec2 == 0 {
				t.Fatal("restart recovered nothing")
			}
			th2 := r2.NewThread()
			for k, v := range want {
				got, ok, err := s2.Get(th2, []byte(k))
				if err != nil || !ok || string(got) != v {
					t.Fatalf("after replay %q = %q,%v,%v want %q", k, got, ok, err, v)
				}
			}
			n, err := s2.Len(th2)
			if err != nil || n != len(want) {
				t.Fatalf("replayed Len = %d,%v want %d", n, err, len(want))
			}
			// New mutations continue the per-shard sequence contiguously.
			tk, err := s2.SetItemD(th2, []byte("post-restart"), []byte("x"), 0)
			if err != nil || tk.Wait() != nil {
				t.Fatalf("post-restart set: %v", err)
			}
		})
	}
}

// TestWALRestartTwiceAcrossTornTail crashes a durable store mid-append
// (a torn frame at the log's tail), restarts it, acks more writes, and
// restarts again: the second recovery meets the same torn tail in the old
// segment and must still bring back every write acked after the first.
func TestWALRestartTwiceAcrossTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2}
	set := func(r *tle.Runtime, s *Store, from, to int) {
		th := r.NewThread()
		defer th.Release()
		for i := from; i < to; i++ {
			tk, err := s.SetItemD(th, []byte(fmt.Sprintf("key:%d", i)), []byte(fmt.Sprintf("v%d", i)), 0)
			if err != nil || tk.Wait() != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
	}
	r, s, l, _ := openStoreWAL(t, tle.Policies[0], dir, cfg)
	set(r, s, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "w-00000000.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := logrec.AppendRecord(nil, logrec.Record{Seq: 1 << 40, Op: logrec.OpSet, Key: []byte("torn"), Val: []byte("never-acked")})
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, s, l, recovered := openStoreWAL(t, tle.Policies[0], dir, cfg)
	if recovered != 20 {
		t.Fatalf("first restart recovered %d records, want 20", recovered)
	}
	set(r, s, 20, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, s, l, recovered = openStoreWAL(t, tle.Policies[0], dir, cfg)
	defer l.Close()
	if recovered != 40 {
		t.Fatalf("second restart recovered %d records, want all 40 acked", recovered)
	}
	th := r.NewThread()
	defer th.Release()
	for i := 0; i < 40; i++ {
		got, ok, err := s.Get(th, []byte(fmt.Sprintf("key:%d", i)))
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after the second restart key:%d = %q,%v,%v", i, got, ok, err)
		}
	}
}

// TestWALTicketZeroOnMiss checks that precondition-failed mutations log
// nothing and, on shards nothing was written to, hand back a ticket that
// is already durable.
func TestWALTicketZeroOnMiss(t *testing.T) {
	dir := t.TempDir()
	r, s, l, _ := openStoreWAL(t, tle.Policies[0], dir, Config{Shards: 2})
	defer l.Close()
	th := r.NewThread()

	if removed, tk, err := s.DeleteD(th, []byte("ghost")); err != nil || removed {
		t.Fatalf("DeleteD(ghost) = %v,%v", removed, err)
	} else if err := tk.Wait(); err != nil {
		t.Fatalf("zero ticket wait: %v", err)
	}
	var sc BatchScratch
	one := func(op BatchOp) BatchResult {
		t.Helper()
		var res [1]BatchResult
		if err := s.MutateBatch(th, []BatchOp{op}, res[:], &sc); err != nil || res[0].Err != nil {
			t.Fatalf("%+v: %v, %v", op, err, res[0].Err)
		}
		return res[0]
	}
	if res := one(BatchOp{Verb: BatchReplace, Key: []byte("ghost"), Val: []byte("v")}); res.Store != NotStored {
		t.Fatalf("replace(ghost) = %v", res.Store)
	} else if err := res.Durable.Wait(); err != nil {
		t.Fatalf("miss ticket wait: %v", err)
	}
	if st := l.Stats(); st.Appends != 0 {
		t.Fatalf("missed mutations appended %d records", st.Appends)
	}
	if res := one(BatchOp{Verb: BatchAdd, Key: []byte("k"), Val: []byte("v")}); res.Store != Stored {
		t.Fatalf("add = %v", res.Store)
	} else if err := res.Durable.Wait(); err != nil {
		t.Fatal(err)
	} else if d := l.Durable(s.ShardFor([]byte("k"))); d != 1 {
		t.Fatalf("add acked with its shard durable to %d, want 1", d)
	}
	if st := l.Stats(); st.Appends != 1 {
		t.Fatalf("Appends = %d want 1", st.Appends)
	}
}

// TestWALConcurrentWriters hammers one durable store from many goroutines
// and verifies that the per-shard logs hold exactly the committed
// mutation counts with contiguous sequence numbers — i.e. the tap sits
// inside the commit order even under contention and retries.
func TestWALConcurrentWriters(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			r, s, l, _ := openStoreWAL(t, p, dir, Config{Shards: 4})
			th0 := r.NewThread()

			const workers = 8
			const opsPer = 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := r.NewThread()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < opsPer; i++ {
						key := []byte(fmt.Sprintf("key:%d", rng.Intn(32)))
						if rng.Intn(4) == 0 {
							if _, tk, err := s.DeleteD(th, key); err != nil {
								t.Error(err)
							} else if err := tk.Wait(); err != nil {
								t.Error(err)
							}
						} else {
							val := []byte(fmt.Sprintf("w%d.%d", w, i))
							if tk, err := s.SetItemD(th, key, val, 0); err != nil {
								t.Error(err)
							} else if err := tk.Wait(); err != nil {
								t.Error(err)
							}
						}
					}
				}()
			}
			wg.Wait()
			stats, err := s.Stats(th0)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Re-scan the segments: appends recorded == sets + deletes that
			// actually removed something, and each shard's sequence runs
			// 1..n with no gaps (Recover would stop at a gap).
			l2, err := wal.Open(dir, s.ShardCount(), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			var total int
			lastSeq := map[int]uint64{}
			if _, err := l2.Recover(func(shard int, rec wal.Record) error {
				if rec.Seq != lastSeq[shard]+1 {
					return fmt.Errorf("shard %d: seq %d after %d", shard, rec.Seq, lastSeq[shard])
				}
				lastSeq[shard] = rec.Seq
				if !bytes.HasPrefix(rec.Key, []byte("key:")) {
					return fmt.Errorf("unexpected key %q", rec.Key)
				}
				total++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := int(stats.Sets + stats.Deletes); total != want {
				t.Fatalf("log holds %d records, store counted %d mutations", total, want)
			}
		})
	}
}
