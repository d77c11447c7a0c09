package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// gracePeriods reports the tickets issued to leader scans and the largest
// completed one.
func gracePeriods(m *Manager) (started, completed uint64) {
	return m.gpStarted.Load(), m.gpCompleted.Load()
}

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
	if res := m.Quiesce(nil); res.Wait != 0 {
		t.Fatalf("Quiesce with no active slots waited %v", res.Wait)
	}
}

func TestQuiesceSkipsSelf(t *testing.T) {
	m := NewManager()
	s := m.Register()
	s.Enter()
	done := make(chan Result)
	go func() { done <- m.Quiesce(s) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce(self) blocked on the caller's own slot")
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
		m.Quiesce(b)
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
		m.Quiesce(nil)
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
	if len(m.Slots()) != 1 {
		t.Fatalf("Threads = %d, want 1", len(m.Slots()))
	}
	m.Unregister(a)
	if len(m.Slots()) != 0 {
		t.Fatalf("Threads = %d after Unregister, want 0", len(m.Slots()))
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
	if len(m.Slots()) != 16 {
		t.Fatalf("Threads = %d, want 16", len(m.Slots()))
	}
}

// Register/Unregister racing Quiesce and the shared-grace path: slots come
// and go while quiescers scan and share grace periods. Run under -race this
// checks the copy-on-write slot list and the gp counters together.
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
	// Quiescers: scan concurrently, sometimes hitting the shared path.
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
	started, completed := gracePeriods(m)
	if completed > started {
		t.Fatalf("completed grace periods (%d) exceed started (%d)", completed, started)
	}
}

// Shared-grace correctness: while one slot holds a transaction open, no
// quiescer that entered before the slot exits may return — shared or not.
// The watcher flag flips just before Exit; a quiescer returning earlier
// proves a grace period was claimed without covering the active slot.
func TestSharedGraceNeverReturnsEarly(t *testing.T) {
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
			res := m.Quiesce(nil)
			if !released.Load() {
				errs <- fmt.Errorf("quiescer returned (shared=%v scanned=%v) before the active slot exited", res.Shared, res.Scanned)
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

// Teeth test (SkipUndo-style): sabotage the shared-grace counter directly
// and prove the detector above would catch a broken implementation — i.e.
// a quiescer that trusts a bogus completed-grace-period value returns while
// the active slot is still inside its transaction.
func TestSharedGraceTeeth(t *testing.T) {
	m := NewManager()
	busy := m.Register()
	busy.Enter()
	defer busy.Exit()
	// SABOTAGE: claim that a scan far in the future has completed. Every
	// quiescer now takes the shared fast path without looking at the slots.
	m.gpCompleted.Store(1 << 40)
	res := m.Quiesce(nil)
	if !res.Shared || res.Scanned {
		t.Fatalf("sabotaged manager did not take the shared fast path: %+v", res)
	}
	// The detector from TestSharedGraceNeverReturnsEarly fires: the quiescer
	// returned while the slot was active. This proves the check has teeth.
	if !busy.Active() {
		t.Fatal("slot unexpectedly inactive; teeth test proves nothing")
	}
}

// Regression: a published grace period must cover slots that registered
// between a scanner's probe-pass list load and its ticket. The scanner's
// snapshot pass has to re-load the slot list after taking the ticket; with
// the stale pre-ticket list, a scan that misses a freshly registered active
// slot still publishes, and a concurrent quiescer obliged to wait for that
// slot returns early via the shared path. scanHook parks the scanner in
// exactly that window to make the interleaving deterministic.
func TestSharedGraceCoversLateRegistration(t *testing.T) {
	m := NewManager()
	scannerPaused := make(chan struct{})
	resume := make(chan struct{})
	var hooked atomic.Bool
	m.scanHook = func() {
		// Park only the first contended quiescer (the scanner); the victim
		// passes straight through.
		if hooked.CompareAndSwap(false, true) {
			close(scannerPaused)
			<-resume
		}
	}
	a := m.Register()
	a.Enter()

	// Scanner: its probe pass loads the pre-registration slot list, then it
	// parks before taking its ticket.
	scannerDone := make(chan struct{})
	go func() {
		defer close(scannerDone)
		m.Quiesce(nil)
	}()
	<-scannerPaused

	// The late slot registers and enters a transaction while the scanner is
	// parked: it is missing from the scanner's pre-ticket list.
	late := m.Register()
	late.Enter()

	// Victim: entered after the late transaction began, so it must wait for
	// late to exit. It takes its ticket before the scanner resumes, so the
	// scanner's larger-ticket publish claims to cover it.
	var released atomic.Bool
	victimErr := make(chan error, 1)
	go func() {
		res := m.Quiesce(nil)
		if !released.Load() {
			victimErr <- fmt.Errorf("victim returned (shared=%v scanned=%v) before the late-registered slot exited", res.Shared, res.Scanned)
			return
		}
		victimErr <- nil
	}()
	for started, _ := gracePeriods(m); started == 0; started, _ = gracePeriods(m) {
		time.Sleep(10 * time.Microsecond)
	}

	// Scanner resumes with a larger ticket and slot a exits: a scan over the
	// stale list now runs dry, publishes, and would release the victim while
	// late is still inside its transaction. The post-ticket list re-load
	// makes the scanner wait on late instead.
	close(resume)
	a.Exit()
	time.Sleep(2 * time.Millisecond)
	released.Store(true)
	late.Exit()
	if err := <-victimErr; err != nil {
		t.Fatal(err)
	}
	<-scannerDone
}

// The scan of one quiescer must publish a grace period that a concurrent
// quiescer entering *before* the scan can consume — but only contended scans
// take tickets; the uncontended fast path must leave the counters untouched.
func TestSharedGracePublishes(t *testing.T) {
	m := NewManager()
	self := m.Register()
	for i := 0; i < 3; i++ {
		m.Register()
	}
	var sc Scratch
	for i := 0; i < 10; i++ {
		res := m.QuiesceWith(self, &sc)
		if !res.Scanned {
			t.Fatalf("uncontended quiesce %d did not scan: %+v", i, res)
		}
	}
	if started, completed := gracePeriods(m); started != 0 || completed != 0 {
		t.Fatalf("uncontended quiesces touched the gp counters: (%d, %d), want (0, 0)", started, completed)
	}
	// Contended: an active slot forces the ticketed path, and finishing the
	// wait must publish the ticket for concurrent quiescers to consume.
	busy := m.Register()
	busy.Enter()
	go func() {
		time.Sleep(10 * time.Millisecond)
		busy.Exit()
	}()
	if res := m.QuiesceWith(self, &sc); !res.Scanned {
		t.Fatalf("contended quiesce did not scan: %+v", res)
	}
	started, completed := gracePeriods(m)
	if started == 0 || completed != started {
		t.Fatalf("contended quiesce did not publish its ticket: (%d, %d)", started, completed)
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

// BenchmarkSharedGrace: N quiescers racing over churning slots. The shared
// grace-period counter collapses their concurrent scans; the reported
// shared% metric is the fraction of quiesces satisfied by another's scan.
func BenchmarkSharedGrace(b *testing.B) {
	for _, quiescers := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("quiescers=%d", quiescers), func(b *testing.B) {
			m := NewManager()
			churn := m.Register()
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					churn.Enter()
					churn.Exit()
				}
			}()
			selfs := make([]*Slot, quiescers)
			for i := range selfs {
				selfs[i] = m.Register()
			}
			var next atomic.Int64
			var shared atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < quiescers; i++ {
				wg.Add(1)
				go func(self *Slot) {
					defer wg.Done()
					var sc Scratch
					n := int64(0)
					for next.Add(1) <= int64(b.N) {
						if m.QuiesceWith(self, &sc).Shared {
							n++
						}
					}
					shared.Add(n)
				}(selfs[i])
			}
			wg.Wait()
			b.StopTimer()
			close(stop)
			if b.N > 0 {
				b.ReportMetric(100*float64(shared.Load())/float64(b.N), "shared%")
			}
		})
	}
}
