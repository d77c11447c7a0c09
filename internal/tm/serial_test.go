package tm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotle/internal/epoch"
	"gotle/internal/htm"
)

// newSerialLock returns a lock over its own registry; readers are the
// slots registered with it.
func newSerialLock() (*serialLock, *epoch.Manager) {
	m := epoch.NewManager()
	return &serialLock{epochs: m}, m
}

// entered runs rlock(s) on its own goroutine and reports whether it got in
// within d; the returned channel closes when it does.
func entered(l *serialLock, s *epoch.Slot, d time.Duration) (bool, <-chan struct{}) {
	in := make(chan struct{})
	go func() {
		l.rlock(s)
		close(in)
	}()
	select {
	case <-in:
		return true, in
	case <-time.After(d):
		return false, in
	}
}

func TestSerialLockReadersShare(t *testing.T) {
	l, m := newSerialLock()
	a, b := m.Register(), m.Register()
	l.rlock(a)
	if ok, _ := entered(l, b, 5*time.Second); !ok {
		t.Fatal("second reader blocked")
	}
	if l.state.Load() != 0 {
		t.Fatalf("two readers left state = %#x: the read side wrote the shared word", l.state.Load())
	}
	if !a.Active() || !b.Active() {
		t.Fatal("a reader's slot is inactive: the read side is the slot")
	}
	a.Exit()
	b.Exit()
}

func TestSerialLockWriterExcludesReaders(t *testing.T) {
	l, m := newSerialLock()
	s := m.Register()
	l.wlock(nil)
	if l.state.Load() != slWriterHeld {
		t.Fatalf("state = %#x while held, want slWriterHeld", l.state.Load())
	}
	ok, in := entered(l, s, 20*time.Millisecond)
	if ok {
		t.Fatal("reader entered while writer held")
	}
	if s.Active() {
		t.Fatal("a reader waiting for the writer left its slot active")
	}
	l.wunlock()
	select {
	case <-in:
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked after writer release")
	}
	s.Exit()
}

func TestSerialLockWriterWaitsForReaders(t *testing.T) {
	l, m := newSerialLock()
	s := m.Register()
	l.rlock(s)
	acquired := make(chan struct{})
	var drained atomic.Bool
	go func() {
		l.wlock(nil)
		if !drained.Load() {
			t.Error("writer acquired before readers drained")
		}
		l.wunlock()
		close(acquired)
	}()
	time.Sleep(10 * time.Millisecond)
	drained.Store(true)
	s.Exit()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired")
	}
}

// A reader that sees the writer leaves its slot before it waits, so a
// stream of readers cannot starve a writer.
func TestSerialLockWriterNotStarved(t *testing.T) {
	l, m := newSerialLock()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(s *epoch.Slot) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.rlock(s)
				s.Exit()
			}
		}(m.Register())
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			l.wlock(nil)
			l.wunlock()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("writer starved by reader stream")
	}
	close(stop)
	wg.Wait()
}

func TestSerialLockOnWaitingHookRuns(t *testing.T) {
	l, _ := newSerialLock()
	ran := false
	l.wlock(func() { ran = true })
	l.wunlock()
	if !ran {
		t.Fatal("onWaiting hook skipped")
	}
}

// Mutual exclusion under threads that, like an engine's, each run attempts
// on their own slot and now and then a serial section.
func TestSerialLockMutualExclusion(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("threads=%d", n), func(t *testing.T) {
			l, m := newSerialLock()
			var readers, writers, violations atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(s *epoch.Slot) {
					defer wg.Done()
					for j := 0; j < 2000; j++ {
						if j%10 == 0 {
							l.wlock(nil)
							writers.Add(1)
							if readers.Load() != 0 || writers.Load() != 1 {
								violations.Add(1)
							}
							writers.Add(-1)
							l.wunlock()
							continue
						}
						l.rlock(s)
						readers.Add(1)
						if writers.Load() != 0 {
							violations.Add(1)
						}
						readers.Add(-1)
						s.Exit()
					}
				}(m.Register())
			}
			wg.Wait()
			if violations.Load() != 0 {
				t.Fatalf("%d mutual-exclusion violations", violations.Load())
			}
		})
	}
}

// A thread that registers after the writer took its snapshot of the slots
// is not on the writer's list, so nothing waits for it: it must keep itself
// out, by seeing the writer word its own Enter is ordered before.
func TestSerialLockLateRegistrantCannotEnter(t *testing.T) {
	l, m := newSerialLock()
	early := m.Register()
	l.rlock(early)
	waiting, held, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		l.wlock(func() { close(waiting) })
		close(held)
		<-release
		l.wunlock()
	}()
	<-waiting
	time.Sleep(10 * time.Millisecond) // the writer now spins on early's slot, its list taken
	if l.state.Load() != slWriterWaiting {
		t.Fatalf("state = %#x while draining, want slWriterWaiting", l.state.Load())
	}
	late := m.Register()
	ok, in := entered(l, late, 20*time.Millisecond)
	if ok {
		t.Fatal("a late registrant entered while a writer was draining")
	}
	early.Exit()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired: it waits for a reader that backed out")
	}
	select {
	case <-in:
		t.Fatal("the late registrant entered while the writer held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-in:
	case <-time.After(5 * time.Second):
		t.Fatal("the late registrant never entered after the writer left")
	}
	late.Exit()
}

// A serial section waits for other threads' attempts, not for what their
// commits do afterwards: a Tx.Defer action that blocks must not hold it up.
func TestSerialSectionDoesNotWaitForCommitActions(t *testing.T) {
	for _, mode := range []Mode{ModeSTM, ModeHTM} {
		t.Run(mode.String(), func(t *testing.T) {
			e := New(Config{Mode: mode, MemWords: 1 << 14, HTM: htm.Config{EventAbortPerMillion: -1}})
			a := e.Alloc(1)
			tha, thb := e.NewThread(), e.NewThread()
			running, unblock, doneA := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(doneA)
				err := e.Atomic(tha, func(tx Tx) error {
					tx.Store(a, 1)
					tx.Defer(func() {
						close(running)
						<-unblock
					})
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
			<-running
			serialDone := make(chan struct{})
			go func() {
				defer close(serialDone)
				if err := e.Synchronized(thb, func(tx Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
			select {
			case <-serialDone:
			case <-time.After(5 * time.Second):
				t.Error("the serial section waited for another thread's deferred action")
			}
			close(unblock)
			<-doneA
			<-serialDone
			if got := e.Load(a); got != 2 {
				t.Fatalf("word = %d after one commit and one serial increment, want 2", got)
			}
		})
	}
}

// A serial section allocates nothing of its own: a single-threaded replay
// runs one per 64 records.
func TestSerialSectionAllocatesNothing(t *testing.T) {
	for _, mode := range []Mode{ModeSTM, ModeHTM} {
		t.Run(mode.String(), func(t *testing.T) {
			e := New(Config{Mode: mode, MemWords: 1 << 14, HTM: htm.Config{EventAbortPerMillion: -1}})
			th := e.NewThread()
			defer th.Release()
			body := func(Tx) error { return nil }
			if n := testing.AllocsPerRun(100, func() {
				if err := e.Synchronized(th, body); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("Synchronized with an empty body: %v allocs per section, want 0", n)
			}
		})
	}
}
