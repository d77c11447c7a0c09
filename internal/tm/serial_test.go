package tm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotle/internal/epoch"
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
	l.runlock(a)
	l.runlock(b)
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
	l.wunlock()
	select {
	case <-in:
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked after writer release")
	}
	l.runlock(s)
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
	l.runlock(s)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never acquired")
	}
}

// The waiting bit blocks NEW readers, so a stream of readers cannot starve
// a writer.
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
				l.runlock(s)
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

// Mutual exclusion invariant under concurrent readers and writers.
func TestSerialLockMutualExclusion(t *testing.T) {
	l, m := newSerialLock()
	var readers, writers atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(s *epoch.Slot) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				l.rlock(s)
				readers.Add(1)
				if writers.Load() != 0 {
					violations.Add(1)
				}
				readers.Add(-1)
				l.runlock(s)
			}
		}(m.Register())
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.wlock(nil)
				writers.Add(1)
				if readers.Load() != 0 || writers.Load() != 1 {
					violations.Add(1)
				}
				writers.Add(-1)
				l.wunlock()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}

// A thread that registers after the writer took its snapshot of the readers
// is not on the writer's list, so nothing waits for it: it must keep itself
// out, by seeing the writer word its own flag store is ordered before.
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
	time.Sleep(10 * time.Millisecond) // the writer now spins on early's flag, its list taken
	if l.state.Load() != slWriterWaiting {
		t.Fatalf("state = %#x while draining, want slWriterWaiting", l.state.Load())
	}
	late := m.Register()
	ok, in := entered(l, late, 20*time.Millisecond)
	if ok {
		t.Fatal("a late registrant entered while a writer was draining")
	}
	l.runlock(early)
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
	l.runlock(late)
}
