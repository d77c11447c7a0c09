package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// registered reports how many slots m lists.
func registered(m *Manager) int { return len(*m.slots.Load()) }

func TestEnterExitParity(t *testing.T) {
	m := NewManager()
	s := m.Register()
	if s.Active() {
		t.Fatal("fresh slot active")
	}
	s.Enter()
	if !s.Active() {
		t.Fatal("slot not active after Enter")
	}
	s.Exit()
	if s.Active() {
		t.Fatal("slot active after Exit")
	}
}

// Every attempt increments its thread's slot twice and every quiescer and
// serial writer loads all of them: two threads' slots on one line would be
// a line both write on every attempt.
func TestSlotIsWholeCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(Slot{}); sz != 64 {
		t.Fatalf("sizeof(Slot) = %d, want 64: resize the trailing pad", sz)
	}
	m := NewManager()
	a, b := uintptr(unsafe.Pointer(m.Register())), uintptr(unsafe.Pointer(m.Register()))
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("slots at %#x and %#x are not line-aligned", a, b)
	}
}

func TestQuiesceNoActiveReturnsImmediately(t *testing.T) {
	m := NewManager()
	for i := 0; i < 4; i++ {
		m.Register()
	}
	var sc Scratch
	if wait := m.QuiesceWith(nil, &sc); wait != 0 {
		t.Fatalf("QuiesceWith with no active slots waited %v", wait)
	}
}

func TestQuiesceSkipsSelf(t *testing.T) {
	m := NewManager()
	s := m.Register()
	s.Enter()
	done := make(chan time.Duration)
	go func() {
		var sc Scratch
		done <- m.QuiesceWith(s, &sc)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("QuiesceWith(self) blocked on the caller's own slot")
	}
	s.Exit()
}

func TestQuiesceWaitsForActive(t *testing.T) {
	m := NewManager()
	a := m.Register()
	b := m.Register()
	a.Enter()
	var released atomic.Bool
	done := make(chan struct{})
	go func() {
		var sc Scratch
		m.QuiesceWith(b, &sc)
		if !released.Load() {
			t.Error("Quiesce returned before active transaction exited")
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	released.Store(true)
	a.Exit()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce never returned")
	}
}

// A quiescer must wait only for transactions active at snapshot time: a slot
// that exits and re-enters satisfies the wait even though it is active again.
func TestQuiesceGrandfatherClause(t *testing.T) {
	m := NewManager()
	a := m.Register()
	a.Enter()
	done := make(chan struct{})
	go func() {
		var sc Scratch
		m.QuiesceWith(nil, &sc)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	a.Exit()
	a.Enter() // new transaction; quiescer must not wait for this one
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce waited for a transaction that began after the snapshot")
	}
	a.Exit()
}

func TestUnregister(t *testing.T) {
	m := NewManager()
	a := m.Register()
	if n := registered(m); n != 1 {
		t.Fatalf("Threads = %d, want 1", n)
	}
	m.Unregister(a)
	if n := registered(m); n != 0 {
		t.Fatalf("Threads = %d after Unregister, want 0", n)
	}
}

func TestUnregisterActivePanics(t *testing.T) {
	m := NewManager()
	a := m.Register()
	a.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("Unregister of active slot did not panic")
		}
	}()
	m.Unregister(a)
}

// Stress: many threads running transactions while others quiesce; every
// quiescence must observe the snapshot rule without deadlock.
func TestQuiesceStress(t *testing.T) {
	m := NewManager()
	const threads = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < threads; i++ {
		s := m.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Enter()
				s.Exit()
				m.QuiesceWith(s, &sc)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestConcurrentRegister(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.Register()
			s.Enter()
			s.Exit()
		}()
	}
	wg.Wait()
	if n := registered(m); n != 16 {
		t.Fatalf("Threads = %d, want 16", n)
	}
}

// Register/Unregister racing quiescers: slots come and go while quiescers
// snapshot them. Run under -race this checks the copy-on-write slot list.
func TestRegisterUnregisterQuiesceRace(t *testing.T) {
	m := NewManager()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churners: register, run a few transactions, unregister.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Register()
				for j := 0; j < 3; j++ {
					s.Enter()
					s.Exit()
				}
				m.Unregister(s)
			}
		}()
	}
	// Quiescers: snapshot and wait concurrently.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.QuiesceWith(nil, &sc)
			}
		}()
	}
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// While one slot holds a transaction open, no quiescer that started before
// the slot exits may return, however many wait at once. The flag flips
// just before Exit; a quiescer that returns earlier ended a grace period
// that did not cover the active slot.
func TestQuiesceNeverReturnsEarly(t *testing.T) {
	m := NewManager()
	busy := m.Register()
	var released atomic.Bool
	const quiescers = 8
	errs := make(chan error, quiescers)
	var wg sync.WaitGroup
	busy.Enter()
	for i := 0; i < quiescers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			wait := m.QuiesceWith(nil, &sc)
			if !released.Load() {
				errs <- fmt.Errorf("quiescer returned after %v, before the active slot exited", wait)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	released.Store(true)
	busy.Exit()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// QuiesceWith must not allocate once the scratch has warmed up.
func TestQuiesceWithDoesNotAllocate(t *testing.T) {
	m := NewManager()
	self := m.Register()
	others := make([]*Slot, 6)
	for i := range others {
		others[i] = m.Register()
		others[i].Enter() // active at snapshot: forces the pending path
	}
	var sc Scratch
	go func() {
		time.Sleep(5 * time.Millisecond)
		for _, s := range others {
			s.Exit()
		}
	}()
	m.QuiesceWith(self, &sc) // warm the scratch
	for _, s := range others {
		s.Enter()
		s.Exit()
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.QuiesceWith(self, &sc)
	})
	if allocs != 0 {
		t.Fatalf("QuiesceWith allocates %.1f objects per call, want 0", allocs)
	}
}

func BenchmarkQuiesceIdle(b *testing.B) {
	m := NewManager()
	self := m.Register()
	for i := 0; i < 12; i++ {
		m.Register()
	}
	var sc Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.QuiesceWith(self, &sc)
	}
}
