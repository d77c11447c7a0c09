package tm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/memseg"
)

// Tests that attempts which conflict with nobody leave the engine's shared
// words alone, and that what used to read those words still finds them.

// K threads parked inside read-only attempts have not touched the serial
// lock's word, and a serial writer still waits for every one of them.
func TestParkedAttemptsLeaveSerialWordZero(t *testing.T) {
	for _, mode := range []Mode{ModeSTM, ModeHTM} {
		t.Run(mode.String(), func(t *testing.T) {
			const K = 4
			e := New(Config{Mode: mode, MemWords: 1 << 16, HTM: htm.Config{EventAbortPerMillion: -1}})
			a := e.Alloc(K)
			var in sync.WaitGroup
			var release [K]chan struct{}
			done := make(chan int, K)
			for i := 0; i < K; i++ {
				release[i] = make(chan struct{})
				th := e.NewThread()
				in.Add(1)
				go func(i int) {
					first := true
					err := e.Atomic(th, func(tx Tx) error {
						_ = tx.Load(a + memseg.Addr(i))
						if first { // a doomed HTM attempt's retry does not park again
							first = false
							in.Done()
							<-release[i]
						}
						return nil
					})
					if err != nil {
						t.Error(err)
					}
					done <- i
				}(i)
			}
			in.Wait()
			if s := e.serial.state.Load(); s != 0 {
				t.Fatalf("serial word = %#x with %d attempts in flight and no writer: the read side wrote it", s, K)
			}
			serialDone := make(chan struct{})
			go func() {
				e.Drain(func() {})
				close(serialDone)
			}()
			for i := 0; i < K; i++ {
				select {
				case <-serialDone:
					t.Fatalf("the writer got in with %d attempts still parked", K-i)
				case <-time.After(10 * time.Millisecond):
				}
				if s := e.serial.state.Load(); s != slWriterWaiting {
					t.Fatalf("serial word = %#x while draining, want slWriterWaiting", s)
				}
				close(release[i])
			}
			select {
			case <-serialDone:
			case <-time.After(10 * time.Second):
				t.Fatal("the writer never got in after every attempt left")
			}
			for i := 0; i < K; i++ {
				<-done
			}
		})
	}
}

// A tleserved-sized hybrid engine makes a thread per connection. The HTM
// context — descriptor, event RNG and a stamp table of one word per heap
// line, 4 MiB here — must be paid for once per id, not once per thread, and
// a transaction claiming lines meanwhile must be able to ask the contexts
// that come and go.
func TestThreadChurnReusesHTMContexts(t *testing.T) {
	e := New(Config{Mode: ModeHTM, Hybrid: true, MemWords: 1 << 23, HTM: htm.Config{EventAbortPerMillion: -1}})
	a := e.Alloc(16)
	stop, claimerDone := make(chan struct{}), make(chan struct{})
	claimer := e.NewThread()
	go func() {
		defer close(claimerDone)
		v := uint64(0)
		body := func(tx Tx) error { tx.Store(a, v); return nil } // one closure: the loop allocates nothing
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			if err := e.Atomic(claimer, body); err != nil {
				t.Error(err)
				return
			}
			e.Store(a+1, v)
		}
	}()
	cycle := func() {
		th := e.NewThread()
		if err := e.Atomic(th, func(tx Tx) error { _ = tx.Load(a) + tx.Load(a+8); return nil }); err != nil {
			t.Fatal(err)
		}
		th.Release()
	}
	cycle() // the id's first thread builds the context
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	close(stop)
	<-claimerDone
	// TotalAlloc counts the claimer's allocations too; it makes none per
	// transaction.
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("1000 cycles allocated %d bytes", got)
	if got >= 1<<20 {
		t.Fatalf("1000 NewThread/Release cycles allocated %d bytes, want < 1 MiB", got)
	}
}
