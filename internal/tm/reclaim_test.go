package tm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/memseg"
)

// holdAttempt starts an attempt under mech on a thread of its own that runs
// read and then stays inside its body; it returns once the body is parked.
// release lets the attempt commit and waits for its thread to be released.
func holdAttempt(t *testing.T, e *Engine, mech Mech, read func(Tx)) (release func()) {
	t.Helper()
	parked, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(done)
		th := e.NewThread()
		defer th.Release()
		resolve := func() (Mech, bool, bool) { return mech, true, true }
		if err := e.AtomicOpts(th, CallOpts{Resolve: resolve}, func(tx Tx) error {
			read(tx)
			once.Do(func() { close(parked) })
			<-rel
			return nil
		}); err != nil {
			t.Errorf("held attempt: %v", err)
		}
	}()
	<-parked
	return func() { close(rel); <-done }
}

// freeBlocks commits one NoQuiesce transaction that allocates and frees n
// blocks of words words.
func freeBlocks(t *testing.T, e *Engine, th *Thread, n, words int) {
	if err := e.Atomic(th, func(tx Tx) error {
		tx.NoQuiesce()
		for i := 0; i < n; i++ {
			a := tx.Alloc(words)
			tx.Store(a, uint64(i))
			tx.Free(a)
		}
		return nil
	}); err != nil {
		t.Errorf("Atomic: %v", err)
	}
}

// A block freed while an attempt that read it is still running — STM or,
// in a hybrid engine, HTM — stays allocated, unpoisoned and out of every
// Alloc for as long as that attempt runs, however often the freeing thread
// commits; the freeing thread's first commit after the attempt ends frees it.
func TestDeferredReclaimWaitsForReaders(t *testing.T) {
	for name, mech := range map[string]Mech{"stm": MechSTM, "htm": MechHTM} {
		t.Run(name, func(t *testing.T) {
			e := New(Config{Mode: ModeSTM, Hybrid: true, MemWords: 1 << 18, Quiesce: QuiesceAll,
				HonorNoQuiesce: true, DeferredReclaim: true, HTM: htm.Config{EventAbortPerMillion: -1}})
			mem := e.Memory()
			const words = 8
			root, x := e.Alloc(1), e.Alloc(words)
			for i := 0; i < words; i++ {
				e.Store(x+memseg.Addr(i), uint64(100+i))
			}
			e.Store(root, uint64(x))
			release := holdAttempt(t, e, mech, func(tx Tx) {
				if p := memseg.Addr(tx.Load(root)); p != memseg.Nil {
					tx.Load(p + 1)
				}
			})

			th := e.NewThread()
			defer th.Release()
			live := mem.LiveWords()
			if err := e.Atomic(th, func(tx Tx) error {
				tx.NoQuiesce()
				tx.Store(root, 0)
				tx.Free(x)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			const more = 20
			for i := 0; i < more; i++ {
				var a memseg.Addr
				if err := e.Atomic(th, func(tx Tx) error {
					tx.NoQuiesce()
					a = tx.Alloc(words)
					tx.Free(a)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if a == x {
					t.Fatalf("commit %d: Alloc handed out the freed block while its reader runs", i)
				}
			}
			if got, want := mem.LiveWords(), live+more*words; got != int64(want) {
				t.Fatalf("LiveWords = %d while the reader runs, want %d (the freed block and %d parked ones)", got, want, more)
			}
			if v := mem.Load(x + 1); v != 101 {
				t.Fatalf("freed block reads %#x while its reader runs", v)
			}
			if n := e.Snapshot().ReclaimParked(); n != 1+more {
				t.Fatalf("ReclaimParked = %d, want %d", n, 1+more)
			}

			release()
			if err := e.Atomic(th, func(tx Tx) error { tx.Load(root); return nil }); err != nil {
				t.Fatal(err)
			}
			if got, want := mem.LiveWords(), live-words; got != want {
				t.Fatalf("LiveWords = %d one commit after the reader ended, want %d", got, want)
			}
			if v := mem.Load(x + 1); v != memseg.Poison {
				t.Fatalf("block not freed one commit after its reader ended: reads %#x", v)
			}
			if n := e.Snapshot().ReclaimParked(); n != 0 {
				t.Fatalf("ReclaimParked = %d after the grace period, want 0", n)
			}
		})
	}
}

// TestDeferredReclaimSharesGrace: while a peer stays inside a transaction,
// every thread's freeing commits park. Each thread seals one batch at its
// first commit and collects the rest into a second, so the engine counts
// two grace periods per thread and the other commits as shared; the first
// commit each thread makes once the peer has left frees everything.
func TestDeferredReclaimSharesGrace(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 18, Quiesce: QuiesceAll,
		HonorNoQuiesce: true, DeferredReclaim: true})
	baseline := e.Memory().LiveWords()
	release := holdAttempt(t, e, MechSTM, func(Tx) {})

	const workers = 4
	const opsPerWorker = 500
	threads := make([]*Thread, workers)
	var wg sync.WaitGroup
	for w := range threads {
		threads[w] = e.NewThread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				freeBlocks(t, e, th, 1, 8)
			}
		}(threads[w])
	}
	wg.Wait()

	s := e.Snapshot()
	total := uint64(workers * opsPerWorker)
	if s.Quiesces != 2*workers || s.SharedGrace != total-2*workers || s.ScansAvoided != s.SharedGrace {
		t.Fatalf("quiesces=%d sharedGrace=%d scansAvoided=%d, want %d, %d, %d",
			s.Quiesces, s.SharedGrace, s.ScansAvoided, 2*workers, total-2*workers, total-2*workers)
	}
	if n := s.ReclaimParked(); n != total {
		t.Fatalf("ReclaimParked = %d with the peer inside its transaction, want %d", n, total)
	}

	release()
	for _, th := range threads {
		if err := e.Atomic(th, func(Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if live := e.Memory().LiveWords(); live != baseline {
		t.Fatalf("LiveWords = %d one commit per thread after the peer left, want %d", live, baseline)
	}
	if s := e.Snapshot(); s.ReclaimParked() != 0 || s.Reclaimed != total {
		t.Fatalf("parked %d, reclaimed %d; want 0, %d", s.ReclaimParked(), s.Reclaimed, total)
	}
	for _, th := range threads {
		th.Release()
	}
}

// TestDeferredReclaimBackpressure: a thread whose frees cannot retire —
// a peer stays inside a transaction — parks at most reclaimMaxWords words.
// The commit that would exceed the bound waits for the peer instead.
func TestDeferredReclaimBackpressure(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 18, Quiesce: QuiesceNone, DeferredReclaim: true})
	mem := e.Memory()
	baseline := mem.LiveWords()
	release := holdAttempt(t, e, MechSTM, func(Tx) {})

	// Each commit frees 64 blocks of 16 words, so reclaimMaxWords/1024
	// commits fill the bound exactly and the next one must wait. The loop
	// would park three times the bound without it.
	const blocksPerOp, words = 64, 16
	const fit = reclaimMaxWords / (blocksPerOp * words)
	var committed atomic.Int64
	th := e.NewThread()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*fit; i++ {
			freeBlocks(t, e, th, blocksPerOp, words)
			committed.Add(1)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for committed.Load() < fit && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a commit past the bound to show
	if n := committed.Load(); n != fit {
		t.Fatalf("%d commits returned while the peer stayed inside its transaction, want %d", n, fit)
	}
	if held := mem.LiveWords() - baseline; held > reclaimMaxWords+blocksPerOp*words {
		t.Fatalf("thread holds %d words, bound %d plus one commit's %d", held, reclaimMaxWords, blocksPerOp*words)
	}

	release()
	<-done
	if held := e.Snapshot().ReclaimParked() * words; held > reclaimMaxWords {
		t.Fatalf("thread that stopped committing holds %d words, bound %d", held, reclaimMaxWords)
	}
	th.Release()
	if live := mem.LiveWords(); live != baseline {
		t.Fatalf("LiveWords = %d after Release, want %d", live, baseline)
	}
}

// Release waits out the grace period of everything the thread parked and
// frees it.
func TestReleaseFreesParked(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 18, Quiesce: QuiesceNone, DeferredReclaim: true})
	mem := e.Memory()
	baseline := mem.LiveWords()
	release := holdAttempt(t, e, MechSTM, func(Tx) {})
	th := e.NewThread()
	for i := 0; i < 10; i++ {
		freeBlocks(t, e, th, 4, 8)
	}
	parked := mem.LiveWords()
	if parked != baseline+10*4*8 {
		t.Fatalf("LiveWords = %d, want %d parked", parked, baseline+10*4*8)
	}
	done := make(chan struct{})
	go func() { th.Release(); close(done) }()
	time.Sleep(20 * time.Millisecond) // room for a Release that does not wait to show
	select {
	case <-done:
		t.Fatal("Release returned while a transaction that predates the frees runs")
	default:
	}
	if live := mem.LiveWords(); live != parked {
		t.Fatalf("LiveWords = %d before the grace period ended, want %d", live, parked)
	}
	release()
	<-done
	if live := mem.LiveWords(); live != baseline {
		t.Fatalf("LiveWords = %d after Release, want %d", live, baseline)
	}
	if n := e.Snapshot().ReclaimParked(); n != 0 {
		t.Fatalf("ReclaimParked = %d after Release, want 0", n)
	}
}
