package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

// logTap records the log AttachTap hands it.
type logTap struct{ l *wal.Log }

func (t *logTap) AttachLog(l *wal.Log) { t.l = l }

// TestAttachTapHandsOverTheWAL: a tap reads the store's mutations from its
// WAL, so AttachTap hands it the attached log, and panics, naming
// AttachWAL, on a store without one.
func TestAttachTapHandsOverTheWAL(t *testing.T) {
	_, s, l, _ := openStoreWAL(t, tle.PolicyHTMCondVar, t.TempDir(), Config{Shards: 2})
	defer l.Close()
	var tap logTap
	s.AttachTap(&tap)
	if tap.l != l {
		t.Fatal("AttachTap did not hand the tap the store's WAL")
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "AttachWAL") {
			t.Fatalf("AttachTap without a WAL: panic %q, want one naming AttachWAL", msg)
		}
	}()
	New(newRT(tle.PolicyHTMCondVar), Config{Shards: 2}).AttachTap(&tap)
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
					res, err := s.Mutate(th, BatchOp{Verb: BatchIncr, Key: []byte(ctr), Delta: 1})
					if err != nil || res.Incr != IncrStored {
						t.Fatalf("incr: %v %v", res.Incr, err)
					}
					want[ctr] = fmt.Sprintf("%d", res.NewVal)
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
// (a torn frame at the log's tail), restarts it, acks more writes, crashes
// it again and restarts: the second recovery meets the same torn tail in
// the old segment and must still bring back every write acked after the
// first. A crash is a copy of the log directory taken once every write is
// acked, before Close. Then a clean Close compacts the history, tear and
// all, and a third restart brings back the same writes from the base.
func TestWALRestartTwiceAcrossTornTail(t *testing.T) {
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
	kill := func(l *wal.Log, dir string) string {
		c := filepath.Join(t.TempDir(), "wal")
		if err := os.CopyFS(c, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	r, s, l, _ := openStoreWAL(t, tle.Policies[0], dir, cfg)
	set(r, s, 0, 20)
	dir = kill(l, dir)
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
	dir = kill(l, dir)

	for _, restart := range []string{"second", "compacted"} {
		r, s, l, recovered = openStoreWAL(t, tle.Policies[0], dir, cfg)
		if recovered != 40 {
			t.Fatalf("%s restart recovered %d records, want all 40 acked", restart, recovered)
		}
		th := r.NewThread()
		for i := 0; i < 40; i++ {
			got, ok, err := s.Get(th, []byte(fmt.Sprintf("key:%d", i)))
			if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
				t.Fatalf("after the %s restart key:%d = %q,%v,%v", restart, i, got, ok, err)
			}
		}
		th.Release()
		if err := l.Close(); err != nil {
			t.Fatal(err)
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
	one := func(op BatchOp) BatchResult {
		t.Helper()
		var res [1]BatchResult
		if err := s.MutateBatch(th, []BatchOp{op}, res[:], nil); err != nil || res[0].Err != nil {
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
			// Read the log back: appends recorded == sets + deletes that
			// actually removed something, and each shard's sequence runs
			// 1..n with no gaps (a Reader refuses a gap, and so would
			// Recover).
			rd, err := l.NewReader(make([]uint64, s.ShardCount()))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			defer rd.Close()
			var total int
			lastSeq := map[int]uint64{}
			if err := rd.Next(func(shard int, seq uint64, frame []byte) error {
				rec, _, err := logrec.DecodeRecord(frame)
				if err != nil || rec.Seq != lastSeq[shard]+1 {
					return fmt.Errorf("shard %d: seq %d after %d (%v)", shard, rec.Seq, lastSeq[shard], err)
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

// TestSingleKeyMutatorsAllocateNothing gates the batches of one behind the
// single-key mutators on a store with a WAL, each ticket waited: a set, a
// delete hit, a delete miss, an incr and a decr that change the digit
// count (so the item is reallocated), once warm, allocate nothing.
func TestSingleKeyMutatorsAllocateNothing(t *testing.T) {
	for _, p := range []tle.Policy{tle.PolicySTMCondVar, tle.PolicyHTMCondVar} {
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{Shards: 4})
			l, err := wal.Open(t.TempDir(), s.ShardCount(), wal.Options{FsyncWindow: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			th := r.NewThread()
			defer th.Release()
			if _, err := s.Recover(th, l); err != nil {
				t.Fatal(err)
			}
			if err := s.AttachWAL(l); err != nil {
				t.Fatal(err)
			}
			wait := func(tk wal.Ticket, err error) {
				if err == nil {
					err = tk.Wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			// Keys and values are converted inside each call, so one that
			// escapes costs an allocation per op.
			shapes := []struct {
				name string
				fn   func()
			}{
				{"set", func() { wait(s.SetItemD(th, []byte("walkey"), []byte("value"), 1)) }},
				{"delete-miss", func() {
					_, tk, err := s.DeleteD(th, []byte("missing"))
					wait(tk, err)
				}},
				{"set+delete", func() {
					wait(s.SetItemD(th, []byte("walkey"), []byte("value"), 1))
					if rm, tk, err := s.DeleteD(th, []byte("walkey")); !rm {
						t.Fatal("delete missed the key just set")
					} else {
						wait(tk, err)
					}
				}},
				{"incr+decr", func() {
					if res, err := s.Mutate(th, BatchOp{Verb: BatchIncr, Key: []byte("walctr"), Delta: 1}); err != nil || res.Incr != IncrStored || res.NewVal != 10 {
						t.Fatalf("incr = %d, %v, %v", res.NewVal, res.Incr, err)
					}
					if res, err := s.Mutate(th, BatchOp{Verb: BatchDecr, Key: []byte("walctr"), Delta: 1}); err != nil || res.Incr != IncrStored || res.NewVal != 9 {
						t.Fatalf("decr = %d, %v, %v", res.NewVal, res.Incr, err)
					}
				}},
			}
			wait(s.SetItemD(th, []byte("walctr"), []byte("9"), 0))
			for _, sh := range shapes {
				sh.fn()
				if n := testing.AllocsPerRun(200, sh.fn); n != 0 {
					t.Errorf("%s allocates %.1f/op", sh.name, n)
				}
			}
		})
	}
}
