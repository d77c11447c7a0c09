package tle

import (
	"errors"
	"sync"
	"testing"

	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/tm"
)

// A hybrid runtime must run the same mutex under every policy, swapping
// live while workers hammer the critical section, without losing a single
// increment. This is the soundness core of the adaptive controller: a swap
// only lands while the mutex is provably idle, so no two mechanisms ever
// race on the guarded words.
func TestHybridPolicySwapUnderLoad(t *testing.T) {
	r := New(PolicyHTMCondVar, Config{MemWords: 1 << 16, Hybrid: true, Observe: true})
	m := r.NewMutex("swap")
	ctr := r.Engine().Alloc(1)

	const workers, per = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		th := r.NewThread()
		wg.Add(1)
		go func(th *tm.Thread) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m.Do(th, func(tx tm.Tx) error {
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				}); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}(th)
	}
	// Cycle the mutex through the four TM policies, repeatedly, while
	// workers run.
	swaps := []Policy{PolicySTMCondVarNoQ, PolicySTMCondVar, PolicySTMSpin, PolicyHTMCondVar}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 6; round++ {
			for _, p := range swaps {
				if err := m.SetPolicy(p); err != nil {
					t.Errorf("SetPolicy(%s): %v", p, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done

	th := r.NewThread()
	var final uint64
	if err := m.Do(th, func(tx tm.Tx) error {
		final = tx.Load(ctr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(workers * per); final != want {
		t.Fatalf("counter = %d, want %d (lost updates across policy swaps)", final, want)
	}
	obs := m.Observer()
	if obs == nil {
		t.Fatal("Observe runtime returned nil observer")
	}
	if s := obs.Snapshot(); s.Commits < workers*per {
		t.Fatalf("observer commits = %d, want >= %d", s.Commits, workers*per)
	}
}

// A single-mode runtime must refuse policies its engine cannot execute and
// accept the ones it can; and a mutex stays a lock or a transaction for
// life, whatever the engine could run.
func TestSetPolicySupport(t *testing.T) {
	r := New(PolicySTMCondVar, Config{MemWords: 1 << 14})
	m := r.NewMutex("stm-only")
	if err := m.SetPolicy(PolicyHTMCondVar); err == nil {
		t.Fatal("STM-only runtime accepted htm-cv")
	}
	if err := m.SetPolicy(PolicyPthread); err == nil {
		t.Fatal("a transactional mutex accepted pthread")
	}
	if err := m.SetPolicy(PolicySTMCondVarNoQ); err != nil {
		t.Fatalf("stm-cv-noq rejected: %v", err)
	}
	if got := m.CurrentPolicy(); got != PolicySTMCondVarNoQ {
		t.Fatalf("CurrentPolicy = %s", got)
	}

	h := New(PolicyHTMCondVar, Config{MemWords: 1 << 14})
	hm := h.NewMutex("htm-only")
	if err := hm.SetPolicy(PolicySTMCondVar); err == nil {
		t.Fatal("HTM-only runtime accepted stm-cv")
	}
	hy := New(PolicyPthread, Config{MemWords: 1 << 14, Hybrid: true})
	lock := hy.NewMutex("lock")
	for _, p := range Policies {
		if !hy.Supports(p) {
			t.Fatalf("hybrid runtime does not support %s", p)
		}
		if err := lock.SetPolicy(p); err == nil {
			t.Fatalf("a pthread runtime's mutex accepted %s", p)
		}
	}
}

// The per-mutex observer separates traffic by lock: only the mutex that
// executed sections accumulates counts — elided or lock-based.
func TestObserverPerMutex(t *testing.T) {
	for _, p := range []Policy{PolicySTMCondVar, PolicyPthread} {
		t.Run(p.String(), func(t *testing.T) { testObserverPerMutex(t, p) })
	}
}

func testObserverPerMutex(t *testing.T, p Policy) {
	r := New(p, Config{MemWords: 1 << 14, Observe: true})
	a, b := r.NewMutex("a"), r.NewMutex("b")
	th := r.NewThread()
	w := r.Engine().Alloc(1)
	for i := 0; i < 10; i++ {
		if err := a.Do(th, func(tx tm.Tx) error {
			tx.Store(w, tx.Load(w)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Do(th, func(tx tm.Tx) error { tx.Retry(); return nil }); err != tm.ErrRetry {
		t.Fatal(err)
	}
	if got := a.Observer().Snapshot(); got.Commits != 10 || got.Aborts[stats.Explicit] != 1 || got.Starts != 11 {
		t.Fatalf("a = %+v, want 10 commits and 1 explicit abort", got)
	}
	if got := b.Observer().Snapshot(); got.Starts != 0 {
		t.Fatalf("b saw traffic: %+v", got)
	}
	var zero stats.Snapshot
	if d := b.Observer().Snapshot().Sub(zero); d.Starts != 0 {
		t.Fatalf("Sub: %+v", d)
	}
}

// Two threads running disjoint sections under one observed htm-cv mutex:
// the mutex's counters see every commit exactly once, and they are the
// engine's (each thread adds to its own stripe of both).
func TestObservedMutexCountsEveryCommit(t *testing.T) {
	r := New(PolicyHTMCondVar, Config{MemWords: 1 << 14, Observe: true})
	m := r.NewMutex("observed")
	const threads, per = 2, 20000
	before := r.Engine().Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := r.NewThread()
		cell := r.Engine().Alloc(memseg.WordsPerLine) // a line per thread: no conflicts
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := m.Do(th, func(tx tm.Tx) error {
					tx.Store(cell, tx.Load(cell)+1)
					return nil
				}); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, eng := m.Observer().Snapshot(), r.Engine().Snapshot().Sub(before)
	if got.Commits != threads*per {
		t.Fatalf("observer commits = %d, want %d", got.Commits, threads*per)
	}
	if got != eng {
		t.Fatalf("observer and engine disagree:\n observer %+v\n engine   %+v", got, eng)
	}
}

// A section that allocates and then fails or retries gives the blocks back,
// under the lock as under elision: 10 000 of them on a 4096-word heap.
func TestCancelledSectionFreesItsAllocations(t *testing.T) {
	errCancel := errors.New("cancel")
	for _, p := range []Policy{PolicyPthread, PolicySTMCondVar, PolicyHTMCondVar} {
		t.Run(p.String(), func(t *testing.T) {
			r := New(p, Config{MemWords: 1 << 12})
			m := r.NewMutex("leak")
			th := r.NewThread()
			start := r.Engine().Memory().LiveWords()
			for i := 0; i < 10000; i++ {
				n := 1 + i%6 // past directTx's four inline slots too
				err := m.Do(th, func(tx tm.Tx) error {
					for j := 0; j < n; j++ {
						tx.Alloc(8)
					}
					if i%2 == 0 {
						tx.Retry()
					}
					return errCancel
				})
				want := errCancel
				if i%2 == 0 {
					want = tm.ErrRetry
				}
				if err != want {
					t.Fatalf("section %d: err = %v, want %v", i, err, want)
				}
			}
			if live := r.Engine().Memory().LiveWords(); live != start {
				t.Fatalf("LiveWords = %d after cancelled sections, want %d", live, start)
			}
		})
	}
}
