package tm

import (
	"errors"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// A call's CallOpts.Obs receives exactly the attempt-level events the engine's
// own counters do — commits, aborts by cause, serial runs, quiesces — for that
// call and for no other, from every path an attempt can end on.
func TestCallObsSeesTheCallsEvents(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 14, Quiesce: QuiesceAll})
	th := e.NewThread()
	a := e.Alloc(2)
	obs := stats.NewCounters()
	o := CallOpts{Obs: obs}
	errCancel := errors.New("cancel")

	store := func(tx Tx) error { tx.Store(a, tx.Load(a)+1); return nil }
	runs := 0
	for _, c := range []struct {
		name string
		opts CallOpts
		body func(Tx) error
		err  error
	}{
		{"commit", o, store, nil},
		{"read-only commit", o, func(tx Tx) error { tx.Load(a); return nil }, nil},
		{"cancel", o, func(tx Tx) error { return errCancel }, errCancel},
		{"retry", o, func(tx Tx) error { tx.Retry(); return nil }, ErrRetry},
		{"nine validation aborts, then serial", o, func(tx Tx) error {
			if runs++; !tx.Irrevocable() {
				throwAbort(stats.Validation)
			}
			return store(tx)
		}, nil},
		{"unobserved commit", CallOpts{}, store, nil},
	} {
		if err := e.AtomicOpts(th, c.opts, c.body); err != c.err {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.err)
		}
		// The call recorded on the thread's own stripe of its Obs, or nowhere.
		var want *stats.Stripe
		if c.opts.Obs != nil {
			want = obs.Stripe(th.ID())
		}
		if th.obs != want {
			t.Fatalf("%s: th.obs = %p, want %p", c.name, th.obs, want)
		}
	}
	// The injected serial entry's cancel and retry exits.
	if err := e.runSerial(th, &o, func(tx Tx) error { return errCancel }); err != errCancel {
		t.Fatal(err)
	}
	if err := e.runSerial(th, &o, func(tx Tx) error { tx.Retry(); return nil }); err != ErrRetry {
		t.Fatal(err)
	}

	var want stats.Snapshot
	want.Commits, want.ReadOnly, want.SerialRuns = 3, 1, 3
	want.Aborts[stats.Explicit], want.Aborts[stats.Validation] = 4, 9
	want.Starts = want.Commits + 13
	got := obs.Snapshot()
	want.Quiesces, want.QuiesceTime = 2, got.QuiesceTime // the two speculative commits
	if got != want {
		t.Fatalf("observer\n got %+v\nwant %+v", got, want)
	}
	eng := e.Snapshot()
	if eng.Commits != got.Commits+1 || eng.Quiesces != got.Quiesces+1 {
		t.Fatalf("engine %+v must be the observer's counts plus the unobserved commit", eng)
	}
	eng.Commits, eng.Starts, eng.Quiesces, eng.QuiesceTime = got.Commits, got.Starts, got.Quiesces, got.QuiesceTime
	if eng != got {
		t.Fatalf("engine and observer differ beyond the unobserved commit:\n engine   %+v\n observer %+v", eng, got)
	}
}

// Threads past the 64 owned stripes share the overflow stripe and nothing is
// lost: 96 live threads of an STM engine (no hardware-context limit), each
// with its own word, commit at once once all are registered, so ids 64..96
// add to the overflow stripe concurrently while 1..63 add to their own.
func TestEngineCountersExactPastStripeCount(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 14, Quiesce: QuiesceNone})
	const threads, per = 96, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < threads; i++ {
		th := e.NewThread()
		a := e.Alloc(8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < per; j++ {
				if err := e.Atomic(th, func(tx Tx) error { tx.Store(a, uint64(j)); return nil }); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if s := e.Snapshot(); s.Commits != threads*per || s.Starts != s.Commits+s.TotalAborts() {
		t.Fatalf("snapshot = %+v, want %d commits", s, threads*per)
	}
	e.Stats().Reset()
	if s := e.Snapshot(); s != (stats.Snapshot{}) {
		t.Fatalf("after Reset: %+v", s)
	}
}

// The serial path's StoreRange is the allocator's bulk copy; it must store
// what the word loop stored, and mark the transaction as a writer.
func TestSerialStoreRange(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 14, HTM: htm.Config{EventAbortPerMillion: -1}})
	th := e.NewThread()
	a := e.Alloc(300)
	src := pattern(7, 256)
	if err := e.Synchronized(th, func(tx Tx) error {
		tx.StoreRange(a+3, src)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := -3; i < 256+41; i++ {
		want := uint64(0)
		if i >= 0 && i < 256 {
			want = src[i]
		}
		if got := e.Load(a + memseg.Addr(3+i)); got != want {
			t.Fatalf("word %d = %#x, want %#x", i, got, want)
		}
	}
	if s := e.Snapshot(); s.Commits != 1 || s.ReadOnly != 0 || s.SerialRuns != 1 {
		t.Fatalf("snapshot = %+v: a serial StoreRange is one writing commit", s)
	}
}
