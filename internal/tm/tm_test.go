package tm

import (
	"errors"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/memseg"
)

// engines returns a fresh engine per mode for table-driven tests. Event
// aborts are disabled so HTM tests are deterministic unless a test opts in.
func engines(tb testing.TB) map[string]*Engine {
	tb.Helper()
	return map[string]*Engine{
		"stm": New(Config{Mode: ModeSTM, MemWords: 1 << 18, Quiesce: QuiesceAll}),
		"htm": New(Config{Mode: ModeHTM, MemWords: 1 << 18, HTM: htm.Config{EventAbortPerMillion: -1}}),
	}
}

func TestAtomicCommits(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(4)
			if err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 11)
				tx.Store(a+1, tx.Load(a)+1)
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if e.Load(a) != 11 || e.Load(a+1) != 12 {
				t.Fatalf("values = %d,%d", e.Load(a), e.Load(a+1))
			}
			s := e.Snapshot()
			if s.Commits != 1 || s.Starts != 1 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

func TestCancelRollsBack(t *testing.T) {
	boom := errors.New("boom")
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			e.Store(a, 7)
			err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 99)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if e.Load(a) != 7 {
				t.Fatalf("cancelled write visible: %d", e.Load(a))
			}
		})
	}
}

func TestRetryReturnsErrRetry(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			err := e.Atomic(th, func(tx Tx) error {
				if tx.Load(a) == 0 {
					tx.Retry()
				}
				return nil
			})
			if !errors.Is(err, ErrRetry) {
				t.Fatalf("err = %v, want ErrRetry", err)
			}
			// Predicate satisfied: must succeed now.
			e.Store(a, 1)
			if err := e.Atomic(th, func(tx Tx) error {
				if tx.Load(a) == 0 {
					tx.Retry()
				}
				return nil
			}); err != nil {
				t.Fatalf("second attempt: %v", err)
			}
		})
	}
}

func TestNestedAtomicFlattens(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			if err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 5)
				return e.Atomic(th, func(inner Tx) error {
					// Must observe the parent's uncommitted write.
					if got := inner.Load(a); got != 5 {
						t.Errorf("nested read = %d, want 5", got)
					}
					inner.Store(a+1, 6)
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			if e.Load(a+1) != 6 {
				t.Fatal("nested write lost")
			}
		})
	}
}

// A nested call carrying its own per-call options flattens into the parent:
// it runs in the parent's transaction, and its Resolve is never consulted
// because the parent's mechanism and engine-wide retry budget stay in charge.
func TestAtomicRetriesNestedFlattens(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, MaxRetries: 5})
	a := e.Alloc(2)
	th := e.NewThread()
	err := e.Atomic(th, func(tx Tx) error {
		return e.AtomicOpts(th, CallOpts{Resolve: func() (Mech, bool) {
			t.Error("nested call resolved its own configuration")
			return MechSTM, false
		}}, func(inner Tx) error {
			inner.Store(a, 2)
			return nil
		})
	})
	if err != nil || e.Load(a) != 2 {
		t.Fatalf("nested AtomicOpts: %v, val=%d", err, e.Load(a))
	}
}

func TestNestedCancelAbortsWhole(t *testing.T) {
	boom := errors.New("boom")
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 5)
				return e.Atomic(th, func(inner Tx) error { return boom })
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
			if e.Load(a) != 0 {
				t.Fatal("outer write survived nested cancel")
			}
		})
	}
}

func TestDeferRunsOnCommitOnly(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			ran := 0
			if err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 1)
				tx.Defer(func() { ran++ })
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if ran != 1 {
				t.Fatalf("deferred action ran %d times, want 1", ran)
			}
			err := e.Atomic(th, func(tx Tx) error {
				tx.Defer(func() { ran++ })
				return errors.New("cancel")
			})
			if err == nil || ran != 1 {
				t.Fatalf("deferred action ran on cancel (ran=%d)", ran)
			}
		})
	}
}

func TestAllocPersistsOnCommit(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			var a memseg.Addr
			if err := e.Atomic(th, func(tx Tx) error {
				a = tx.Alloc(4)
				tx.Store(a, 77)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if e.Load(a) != 77 {
				t.Fatal("write to transactional allocation lost")
			}
		})
	}
}

func TestAllocRolledBackOnCancel(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			before := e.Memory().LiveWords()
			e.Atomic(th, func(tx Tx) error {
				tx.Alloc(4)
				return errors.New("cancel")
			})
			if after := e.Memory().LiveWords(); after != before {
				t.Fatalf("leaked %d words on cancelled alloc", after-before)
			}
		})
	}
}

func TestFreeDeferredToCommit(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(4)
			e.Store(a, 42)
			// Cancelled transaction must not free.
			e.Atomic(th, func(tx Tx) error {
				tx.Free(a)
				return errors.New("cancel")
			})
			if e.Load(a) != 42 {
				t.Fatal("block freed by cancelled transaction")
			}
			// Committed transaction frees (and quiesces first).
			if err := e.Atomic(th, func(tx Tx) error {
				tx.Free(a)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if e.Memory().LiveWords() != 0 {
				t.Fatalf("LiveWords = %d after free", e.Memory().LiveWords())
			}
		})
	}
}

func TestQuiescePolicies(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		useNoQ      bool
		readOnly    bool
		wantQuiesce uint64
		wantNoQ     uint64
	}{
		{"all/writer", Config{Quiesce: QuiesceAll}, false, false, 1, 0},
		{"all/reader", Config{Quiesce: QuiesceAll}, false, true, 1, 0},
		{"writers/writer", Config{Quiesce: QuiesceWriters}, false, false, 1, 0},
		{"writers/reader", Config{Quiesce: QuiesceWriters}, false, true, 0, 0},
		{"none/writer", Config{Quiesce: QuiesceNone}, false, false, 0, 0},
		{"selective/honored", Config{Quiesce: QuiesceAll, HonorNoQuiesce: true}, true, false, 0, 1},
		{"selective/ignored", Config{Quiesce: QuiesceAll, HonorNoQuiesce: false}, true, false, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Mode = ModeSTM
			c.cfg.MemWords = 1 << 16
			e := New(c.cfg)
			th := e.NewThread()
			a := e.Alloc(2)
			if err := e.Atomic(th, func(tx Tx) error {
				if c.useNoQ {
					tx.NoQuiesce()
				}
				if !c.readOnly {
					tx.Store(a, 1)
				} else {
					tx.Load(a)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s := e.Snapshot()
			if s.Quiesces != c.wantQuiesce || s.NoQuiesce != c.wantNoQ {
				t.Fatalf("quiesces=%d noq=%d, want %d/%d", s.Quiesces, s.NoQuiesce, c.wantQuiesce, c.wantNoQ)
			}
		})
	}
}

func TestFreeForcesQuiesceUnderNoQ(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, Quiesce: QuiesceNone})
	th := e.NewThread()
	a := e.Alloc(2)
	if err := e.Atomic(th, func(tx Tx) error {
		tx.Free(a)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Quiesces != 1 {
		t.Fatalf("freeing transaction did not quiesce under QuiesceNone: %+v", s)
	}
}

func TestHTMNeverQuiesces(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 16, Quiesce: QuiesceAll,
		HTM: htm.Config{EventAbortPerMillion: -1}})
	th := e.NewThread()
	a := e.Alloc(2)
	if err := e.Atomic(th, func(tx Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Quiesces != 0 {
		t.Fatalf("HTM transaction quiesced: %+v", s)
	}
}

// With every access aborting, an HTM atomic block must fall back to serial
// execution after MaxRetries attempts and still complete.
func TestSerialFallback(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 16, MaxRetries: 2,
		HTM: htm.Config{EventAbortPerMillion: 1_000_000, Seed: 7}})
	th := e.NewThread()
	a := e.Alloc(2)
	if err := e.Atomic(th, func(tx Tx) error {
		tx.Store(a, tx.Load(a)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e.Load(a) != 1 {
		t.Fatal("serial fallback lost the write")
	}
	s := e.Snapshot()
	if s.SerialRuns != 1 {
		t.Fatalf("SerialRuns = %d, want 1 (%+v)", s.SerialRuns, s)
	}
	if s.Aborts[3] == 0 { // stats.Event
		t.Fatalf("no event aborts recorded: %+v", s)
	}
}

func TestSynchronizedIsIrrevocable(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			if err := e.Synchronized(th, func(tx Tx) error {
				if !tx.Irrevocable() {
					t.Error("synchronized block not irrevocable")
				}
				tx.Store(a, 3)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if e.Load(a) != 3 {
				t.Fatal("synchronized write lost")
			}
			if s := e.Snapshot(); s.SerialRuns != 1 {
				t.Fatalf("SerialRuns = %d", s.SerialRuns)
			}
		})
	}
}

func TestSerialRetryBeforeWrites(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	a := e.Alloc(2)
	err := e.Synchronized(th, func(tx Tx) error {
		if tx.Load(a) == 0 {
			tx.Retry()
		}
		return nil
	})
	if !errors.Is(err, ErrRetry) {
		t.Fatalf("err = %v, want ErrRetry", err)
	}
}

func TestSerialRetryAfterWritesPanics(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	a := e.Alloc(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Retry after irrevocable write did not panic")
		}
		// Release the serial lock state is unrecoverable after this panic;
		// the engine is intentionally poisoned, matching GCC's abort().
	}()
	e.Synchronized(th, func(tx Tx) error {
		tx.Store(a, 1)
		tx.Retry()
		return nil
	})
}

func TestSynchronizedInsideAtomicPanics(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("Synchronized inside Atomic did not panic")
		}
	}()
	e.Atomic(th, func(tx Tx) error {
		return e.Synchronized(th, func(Tx) error { return nil })
	})
}

func TestUserPanicPropagates(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			th := e.NewThread()
			a := e.Alloc(2)
			func() {
				defer func() {
					if r := recover(); r != "user bug" {
						t.Fatalf("recovered %v", r)
					}
				}()
				e.Atomic(th, func(tx Tx) error {
					tx.Store(a, 9)
					panic("user bug")
				})
			}()
			if e.Load(a) != 0 {
				t.Fatal("write from panicked attempt visible")
			}
			// Engine must still be usable (locks released).
			if err := e.Atomic(th, func(tx Tx) error {
				tx.Store(a, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentCounterBothModes(t *testing.T) {
	for name, e := range engines(t) {
		t.Run(name, func(t *testing.T) {
			a := e.Alloc(2)
			const threads, per = 8, 1500
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := e.NewThread()
				wg.Add(1)
				go func(th *Thread) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := e.Atomic(th, func(tx Tx) error {
							tx.Store(a, tx.Load(a)+1)
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			if got := e.Load(a); got != threads*per {
				t.Fatalf("counter = %d, want %d", got, threads*per)
			}
		})
	}
}

// Serial fallback under contention: many threads, tiny retry budget, heavy
// event aborts. Everything must still complete with a correct total.
func TestSerialFallbackUnderContention(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 16, MaxRetries: 1,
		HTM: htm.Config{EventAbortPerMillion: 200_000, Seed: 3}})
	a := e.Alloc(2)
	const threads, per = 6, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := e.NewThread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := e.Atomic(th, func(tx Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if got := e.Load(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
	if s := e.Snapshot(); s.SerialRuns == 0 {
		t.Fatal("expected some serial fallbacks under heavy event aborts")
	}
}

// Irrevocable (serial) transactions must support the full Tx surface.
func TestSerialTxFullSurface(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	var blk memseg.Addr
	ran := false
	if err := e.Synchronized(th, func(tx Tx) error {
		blk = tx.Alloc(4)
		tx.Store(blk, 7)
		if tx.Load(blk) != 7 {
			t.Error("serial load/store broken")
		}
		tx.NoQuiesce() // no-op
		tx.Defer(func() { ran = true })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("serial deferred action skipped")
	}
	if err := e.Synchronized(th, func(tx Tx) error {
		tx.Free(blk)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lw := e.Memory().LiveWords(); lw != 0 {
		t.Fatalf("LiveWords = %d", lw)
	}
}

func TestSerialCancelBeforeWritesRollsBackAllocs(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	baseline := e.Memory().LiveWords()
	err := e.Synchronized(th, func(tx Tx) error {
		tx.Alloc(8) // allocation only; no Store
		return errors.New("abandoned")
	})
	if err == nil {
		t.Fatal("cancel not propagated")
	}
	if lw := e.Memory().LiveWords(); lw != baseline {
		t.Fatalf("serial cancel leaked %d words", lw-baseline)
	}
}

func TestFreeTMNilNoop(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 14})
	e.FreeTM(memseg.Nil) // must not panic
	eh := New(Config{Mode: ModeHTM, MemWords: 1 << 14})
	a := eh.Alloc(4)
	eh.FreeTM(a) // HTM path with line invalidation
	if lw := eh.Memory().LiveWords(); lw != 0 {
		t.Fatalf("LiveWords = %d", lw)
	}
}

func TestEnginesAreIsolated(t *testing.T) {
	e1 := New(Config{Mode: ModeSTM, MemWords: 1 << 14})
	e2 := New(Config{Mode: ModeSTM, MemWords: 1 << 14})
	a1 := e1.Alloc(2)
	a2 := e2.Alloc(2)
	t1 := e1.NewThread()
	if err := e1.Atomic(t1, func(tx Tx) error {
		tx.Store(a1, 111)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e2.Load(a2) != 0 {
		t.Fatal("engines share state")
	}
	if e2.Snapshot().Commits != 0 {
		t.Fatal("engines share stats")
	}
}

// Thread ids (hardware contexts under HTM) must be reusable: create and
// release far more threads than htm.MaxThreads.
func TestThreadReleaseRecyclesIDs(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 14,
		HTM: htm.Config{EventAbortPerMillion: -1}})
	a := e.Alloc(2)
	for i := 0; i < 500; i++ {
		th := e.NewThread()
		if err := e.Atomic(th, func(tx Tx) error {
			tx.Store(a, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		th.Release()
	}
	if e.Load(a) != 500 {
		t.Fatalf("counter = %d", e.Load(a))
	}
}

func TestReleaseTwiceIsNoop(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 14})
	th := e.NewThread()
	th.Release()
	th.Release() // must not panic
}

func TestReleaseInsideAtomicPanics(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 14})
	th := e.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("Release inside atomic block did not panic")
		}
	}()
	e.Atomic(th, func(tx Tx) error {
		th.Release()
		return nil
	})
}

func TestModeAndPolicyStrings(t *testing.T) {
	if ModeSTM.String() != "stm" || ModeHTM.String() != "htm" {
		t.Error("mode strings wrong")
	}
	if QuiesceAll.String() != "all" || QuiesceWriters.String() != "writers" || QuiesceNone.String() != "none" {
		t.Error("policy strings wrong")
	}
}
