package tle

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

func runtimes(tb testing.TB) map[Policy]*Runtime {
	tb.Helper()
	out := make(map[Policy]*Runtime, len(Policies))
	for _, p := range Policies {
		out[p] = New(p, Config{
			MemWords: 1 << 16,
			HTM:      htm.Config{EventAbortPerMillion: -1},
		})
	}
	return out
}

func TestDoCommits(t *testing.T) {
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			th := r.NewThread()
			m := r.NewMutex("test")
			a := r.Engine().Alloc(2)
			if err := m.Do(th, func(tx tm.Tx) error {
				tx.Store(a, 13)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := r.Engine().Load(a); got != 13 {
				t.Fatalf("value = %d", got)
			}
		})
	}
}

func TestConcurrentCounterAllPolicies(t *testing.T) {
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			m := r.NewMutex("counter")
			a := r.Engine().Alloc(2)
			const threads, per = 6, 800
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := r.NewThread()
				wg.Add(1)
				go func(th *tm.Thread) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if err := m.Do(th, func(tx tm.Tx) error {
							tx.Store(a, tx.Load(a)+1)
							return nil
						}); err != nil {
							t.Errorf("Do: %v", err)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			if got := r.Engine().Load(a); got != threads*per {
				t.Fatalf("counter = %d, want %d", got, threads*per)
			}
		})
	}
}

// Await: one thread waits for a flag, another sets it and signals.
func TestAwaitWakesOnSignal(t *testing.T) {
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			m := r.NewMutex("flag")
			cv := r.NewCond()
			flag := r.Engine().Alloc(2)
			waiter := r.NewThread()
			setter := r.NewThread()
			done := make(chan error, 1)
			go func() {
				done <- m.Await(waiter, cv, time.Second, func(tx tm.Tx) error {
					if tx.Load(flag) == 0 {
						tx.Retry()
					}
					tx.Store(flag, 2) // consume
					return nil
				})
			}()
			time.Sleep(10 * time.Millisecond)
			if err := m.Do(setter, func(tx tm.Tx) error {
				tx.Store(flag, 1)
				cv.SignalTx(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Await never returned")
			}
			if got := r.Engine().Load(flag); got != 2 {
				t.Fatalf("flag = %d, want 2", got)
			}
		})
	}
}

// Producer/consumer over a tiny transactional ring buffer, exercising Await
// in both directions under every policy.
func TestAwaitProducerConsumer(t *testing.T) {
	const items = 300
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			m := r.NewMutex("queue")
			notEmpty := r.NewCond()
			notFull := r.NewCond()
			// queue layout: [head, tail, slots[4]]
			q := r.Engine().Alloc(8)
			const capSlots = 4
			prod := r.NewThread()
			cons := r.NewThread()
			var got []uint64
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 1; i <= items; i++ {
					v := uint64(i)
					err := m.Await(prod, notFull, 100*time.Millisecond, func(tx tm.Tx) error {
						head, tail := tx.Load(q), tx.Load(q+1)
						if tail-head >= capSlots {
							tx.Retry()
						}
						tx.Store(q+2+memAddr(tail%capSlots), v)
						tx.Store(q+1, tail+1)
						notEmpty.SignalTx(tx)
						return nil
					})
					if err != nil {
						t.Errorf("produce: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					var v uint64
					err := m.Await(cons, notEmpty, 100*time.Millisecond, func(tx tm.Tx) error {
						head, tail := tx.Load(q), tx.Load(q+1)
						if head == tail {
							tx.Retry()
						}
						v = tx.Load(q + 2 + memAddr(head%capSlots))
						tx.Store(q, head+1)
						notFull.SignalTx(tx)
						return nil
					})
					if err != nil {
						t.Errorf("consume: %v", err)
						return
					}
					got = append(got, v)
				}
			}()
			wg.Wait()
			if len(got) != items {
				t.Fatalf("consumed %d items, want %d", len(got), items)
			}
			for i, v := range got {
				if v != uint64(i+1) {
					t.Fatalf("item %d = %d, want %d (FIFO violated)", i, v, i+1)
				}
			}
		})
	}
}

func TestCancelPropagates(t *testing.T) {
	boom := errors.New("boom")
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			th := r.NewThread()
			m := r.NewMutex("c")
			err := m.Do(th, func(tx tm.Tx) error { return boom })
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestPthreadDeferRunsAfterUnlock(t *testing.T) {
	r := New(PolicyPthread, Config{MemWords: 1 << 14})
	th := r.NewThread()
	m := r.NewMutex("d")
	order := make(chan string, 2)
	if err := m.Do(th, func(tx tm.Tx) error {
		tx.Defer(func() { order <- "deferred" })
		order <- "body"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a, b := <-order, <-order; a != "body" || b != "deferred" {
		t.Fatalf("order = %s,%s", a, b)
	}
}

func TestPthreadRetryBeforeWrites(t *testing.T) {
	r := New(PolicyPthread, Config{MemWords: 1 << 14})
	th := r.NewThread()
	m := r.NewMutex("r")
	a := r.Engine().Alloc(2)
	err := m.Do(th, func(tx tm.Tx) error {
		if tx.Load(a) == 0 {
			tx.Retry()
		}
		return nil
	})
	if !errors.Is(err, tm.ErrRetry) {
		t.Fatalf("err = %v", err)
	}
	// The mutex must be released: a second Do must not deadlock.
	if err := m.Do(th, func(tx tm.Tx) error { tx.Store(a, 1); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPthreadRetryAfterWritesPanics(t *testing.T) {
	r := New(PolicyPthread, Config{MemWords: 1 << 14})
	th := r.NewThread()
	m := r.NewMutex("rw")
	a := r.Engine().Alloc(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Retry after write under pthread did not panic")
		}
	}()
	m.Do(th, func(tx tm.Tx) error {
		tx.Store(a, 1)
		tx.Retry()
		return nil
	})
}

type recTracer struct {
	mu     sync.Mutex
	events []string
}

func (r *recTracer) Acquire(tid uint64, mid int) {
	r.mu.Lock()
	r.events = append(r.events, "acq")
	r.mu.Unlock()
}
func (r *recTracer) Release(tid uint64, mid int) {
	r.mu.Lock()
	r.events = append(r.events, "rel")
	r.mu.Unlock()
}

func TestTracerObservesCriticalSections(t *testing.T) {
	tr := &recTracer{}
	r := New(PolicySTMCondVar, Config{MemWords: 1 << 14, Tracer: tr})
	th := r.NewThread()
	m := r.NewMutex("traced")
	m.Do(th, func(tx tm.Tx) error { return nil })
	if len(tr.events) != 2 || tr.events[0] != "acq" || tr.events[1] != "rel" {
		t.Fatalf("events = %v", tr.events)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("ParsePolicy accepted nonsense")
	}
}

func TestTransactionalFlag(t *testing.T) {
	if PolicyPthread.Transactional() {
		t.Fatal("pthread flagged transactional")
	}
	for _, p := range Policies[1:] {
		if !p.Transactional() {
			t.Fatalf("%v not flagged transactional", p)
		}
	}
}

func TestMutexNames(t *testing.T) {
	r := New(PolicyPthread, Config{MemWords: 1 << 14})
	m := r.NewMutex("lookahead")
	if m.Name() != "lookahead" {
		t.Fatalf("Name = %q", m.Name())
	}
}

// memAddr converts a uint64 offset for address arithmetic in tests.
func memAddr(v uint64) memseg.Addr { return memseg.Addr(v) }

// Config.MaxRetries reaches the engine: with every access aborting and a
// budget of 1, the fallback happens after exactly one retry.
func TestConfigMaxRetries(t *testing.T) {
	r := New(PolicyHTMCondVar, Config{
		MemWords:   1 << 16,
		MaxRetries: 1,
		HTM:        htm.Config{EventAbortPerMillion: 1_000_000, Seed: 9},
	})
	th := r.NewThread()
	m := r.NewMutex("tuned")
	a := r.Engine().Alloc(2)
	if err := m.Do(th, func(tx tm.Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := r.Engine().Snapshot()
	if s.SerialRuns != 1 || s.Starts != 3 {
		t.Fatalf("serial=%d starts=%d, want 1/3 (budget ignored)", s.SerialRuns, s.Starts)
	}
}

// Nested critical sections coalesce into one atomic region: Do calls inside
// a body flatten into the outer transaction (or run under the outer mutex's
// real lock in pthread mode) — Yoo et al.'s transaction coarsening.
func TestCoalesceIsAtomic(t *testing.T) {
	for p, r := range runtimes(t) {
		t.Run(p.String(), func(t *testing.T) {
			outer := r.NewMutex("outer")
			inner := r.NewMutex("inner")
			a := r.Engine().Alloc(2)
			const threads, per = 4, 400
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := r.NewThread()
				wg.Add(1)
				go func(th *tm.Thread) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						err := outer.Do(th, func(tx tm.Tx) error {
							// Two formerly-separate critical sections,
							// coarsened: read in one, write in the other.
							var v uint64
							if err := inner.Do(th, func(tx2 tm.Tx) error {
								v = tx2.Load(a)
								return nil
							}); err != nil {
								return err
							}
							return inner.Do(th, func(tx2 tm.Tx) error {
								tx2.Store(a, v+1)
								return nil
							})
						})
						if err != nil {
							t.Errorf("nested Do: %v", err)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			if p == PolicyPthread {
				// Under real locks the read and write run under inner's
				// lock but the read-modify-write spans two sections guarded
				// by outer — still atomic because every writer holds outer.
			}
			if got := r.Engine().Load(a); got != threads*per {
				t.Fatalf("counter = %d, want %d", got, threads*per)
			}
		})
	}
}
