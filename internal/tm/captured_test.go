package tm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"gotle/internal/chaos"
	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// Captured memory (Thread.allocs): STM stores into a block the running
// attempt allocated bypass the orec and the undo log. These tests pin the
// bypass, its boundary, and the properties that make it sound.

func pattern(seq uint64, n int) []uint64 {
	p := make([]uint64, n)
	for i := range p {
		p[i] = seq<<16 | uint64(i)
	}
	return p
}

// An attempt that fills a fresh block acquires nothing and logs nothing for
// it, and its abort hands the block straight back: the thread's next
// allocation of its class gets it.
func TestCapturedStoresLogNothing(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	baseline := e.Memory().LiveWords()
	boom := errors.New("boom")
	var blk memseg.Addr
	err := e.Atomic(th, func(tx Tx) error {
		blk = tx.Alloc(300)
		tx.StoreRange(blk, pattern(1, 300))
		tx.Store(blk+299, 7)
		if !th.stx.ReadOnly() || th.stx.WriteSetSize() != 0 {
			t.Errorf("captured stores took %d undo entries, lock set empty = %v",
				th.stx.WriteSetSize(), th.stx.ReadOnly())
		}
		var got [300]uint64
		tx.LoadRange(blk, got[:])
		if got[5] != 1<<16|5 || got[299] != 7 {
			t.Errorf("read own captured writes: got[5]=%#x got[299]=%d", got[5], got[299])
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if live := e.Memory().LiveWords(); live != baseline {
		t.Fatalf("LiveWords = %d after the abort, want %d", live, baseline)
	}
	var again memseg.Addr
	if err := e.Atomic(th, func(tx Tx) error { again = tx.Alloc(300); return nil }); err != nil {
		t.Fatal(err)
	}
	if again != blk {
		t.Fatalf("aborted block %d is not at the head of the thread's free list (got %d)", blk, again)
	}
}

// The boundary: a store that straddles the end of the allocation, one past
// the requested size, and one into a block an earlier transaction of the
// same thread allocated are all instrumented.
func TestCapturedBoundaryIsInstrumented(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	var earlier memseg.Addr
	if err := e.Atomic(th, func(tx Tx) error {
		earlier = tx.Alloc(8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Atomic(th, func(tx Tx) error {
		blk := tx.Alloc(6) // class capacity 8: words 6 and 7 exist but were not asked for
		tx.StoreRange(blk, []uint64{1, 2, 3, 4, 5, 6})
		if n := th.stx.WriteSetSize(); n != 0 {
			t.Errorf("store inside the allocation logged %d words", n)
		}
		tx.StoreRange(blk+4, []uint64{9, 9, 9, 9})
		if n := th.stx.WriteSetSize(); n != 4 {
			t.Errorf("straddling StoreRange logged %d words, want 4", n)
		}
		tx.Store(blk+6, 1)
		if n := th.stx.WriteSetSize(); n != 5 {
			t.Errorf("Store past the requested size logged %d words, want 5", n)
		}
		tx.Store(earlier, 1)
		tx.StoreRange(earlier+1, []uint64{2, 3})
		if n := th.stx.WriteSetSize(); n != 8 {
			t.Errorf("stores into an earlier transaction's block logged %d words, want 8", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e.Load(earlier+2) != 3 {
		t.Fatal("instrumented store lost")
	}
}

// Tx.Free of a block allocated in the same attempt: the block stays out of
// the allocator until commit, and reaches it exactly once.
func TestFreeOfCapturedBlock(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	th := e.NewThread()
	baseline := e.Memory().LiveWords()
	var blk, second memseg.Addr
	if err := e.Atomic(th, func(tx Tx) error {
		blk = tx.Alloc(8)
		tx.Store(blk, 1)
		tx.Free(blk)
		second = tx.Alloc(8)
		tx.Store(blk+1, 2) // still this attempt's block
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if second == blk {
		t.Fatal("a block freed inside the attempt was reused inside it")
	}
	if live := e.Memory().LiveWords(); live != baseline+8 {
		t.Fatalf("LiveWords = %d, want %d (only the second block live)", live, baseline+8)
	}
	// A double free would leave the block linked to itself.
	var x, y memseg.Addr
	if err := e.Atomic(th, func(tx Tx) error { x, y = tx.Alloc(8), tx.Alloc(8); return nil }); err != nil {
		t.Fatal(err)
	}
	if x != blk || y == blk {
		t.Fatalf("the thread's free list after commit hands out %d then %d; freed block was %d", x, y, blk)
	}
}

// With 8-word stripes a captured block's first stripe also covers the tail
// of a live neighbour. Filling the block must not lock that stripe: a
// thread reading the neighbour never conflicts and never sees it change.
func TestCapturedStoreLeavesNeighbourStripeAlone(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, StripeShift: 3})
	// [n0 4w][b0 16w][n1 4w][b1 16w]: freeing b0 and b1 makes them the two
	// blocks the writer's publish/free cycle alternates between.
	var n, b [2]memseg.Addr
	for i := range n {
		n[i], b[i] = e.Alloc(4), e.Alloc(16)
		if (n[i]+3)>>3 != b[i]>>3 {
			t.Fatalf("layout: neighbour %d ends in stripe %d, block starts in %d", i, (n[i]+3)>>3, b[i]>>3)
		}
		for j := memseg.Addr(0); j < 4; j++ {
			e.Store(n[i]+j, 100+uint64(j))
		}
	}
	root := e.Alloc(64) + 32 // stripes away from both neighbours
	e.Free(b[0])
	e.Free(b[1])

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := e.NewThread()
		defer th.Release()
		var got [4]uint64
		for !stop.Load() {
			for i := range n {
				if err := e.Atomic(th, func(tx Tx) error {
					tx.LoadRange(n[i], got[:])
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if got != [4]uint64{100, 101, 102, 103} {
					t.Errorf("neighbour %d changed: %v", i, got)
					return
				}
			}
		}
	}()
	th := e.NewThread()
	for seq := uint64(1); seq <= 10_000; seq++ {
		if err := e.Atomic(th, func(tx Tx) error {
			blk := tx.Alloc(16)
			if blk != b[0] && blk != b[1] {
				t.Errorf("writer allocated %d, outside the prepared layout", blk)
			}
			tx.StoreRange(blk, pattern(seq, 16))
			tx.Free(memseg.Addr(tx.Load(root)))
			tx.Store(root, uint64(blk))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if s := e.Snapshot(); s.TotalAborts() != 0 {
		t.Fatalf("reader of the neighbour and writer of captured blocks conflicted: %v", s)
	}
}

// Publish-then-read: a reader that follows the published pointer sees the
// whole payload of one publication, with blocks recycled through deferred
// reclamation.
func TestCapturedBlockIsWholeOncePublished(t *testing.T) {
	for name, honorNoQ := range map[string]bool{"stm-cv": false, "stm-cv-noq": true} {
		t.Run(name, func(t *testing.T) {
			// Heap: the writer parks up to reclaimMaxWords words.
			e := New(Config{Mode: ModeSTM, MemWords: 1 << 20, Quiesce: QuiesceAll,
				HonorNoQuiesce: honorNoQ, DeferredReclaim: true})
			root := e.Alloc(2)
			const words = 40
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := e.NewThread()
				defer th.Release()
				got := make([]uint64, words)
				for !stop.Load() {
					var blk memseg.Addr
					if err := e.Atomic(th, func(tx Tx) error {
						if blk = memseg.Addr(tx.Load(root)); blk != memseg.Nil {
							tx.LoadRange(blk, got)
						}
						return nil
					}); err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if blk == memseg.Nil {
						continue
					}
					for i, v := range got {
						if v != got[0]+uint64(i) {
							t.Errorf("torn payload at block %d: word %d = %#x, word 0 = %#x", blk, i, v, got[0])
							return
						}
					}
				}
			}()
			th := e.NewThread()
			for seq := uint64(1); seq <= 20_000; seq++ {
				if err := e.Atomic(th, func(tx Tx) error {
					tx.NoQuiesce()
					blk := tx.Alloc(words)
					tx.StoreRange(blk, pattern(seq, words))
					tx.Free(memseg.Addr(tx.Load(root)))
					tx.Store(root, uint64(blk))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// HTM attempts buffer their own allocations like any other line: a 2 KiB
// fill still overflows a 24-line write set, and its one capacity abort
// sends the call serial.
func TestHTMChargesCapacityForOwnAllocations(t *testing.T) {
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 16,
		HTM: htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: -1}})
	th := e.NewThread()
	if err := e.Atomic(th, func(tx Tx) error {
		tx.StoreRange(tx.Alloc(256), pattern(1, 256))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Aborts[stats.Capacity] != 1 || s.SerialRuns != 1 {
		t.Fatalf("256-word fill under 24 write lines: %v", s)
	}
}

// The default retry budget follows the mechanism the attempt ran under,
// not the engine's Mode: in a hybrid engine started in ModeHTM an STM call
// rides out eight aborts, an HTM call serializes after two, and an explicit
// Config.MaxRetries overrides both. An HTM capacity abort spends no budget:
// the call goes serial at once, whatever MaxRetries says.
func TestRetryBudgetFollowsMechanism(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxRetries int
		mech       Mech
		cause      stats.AbortCause
		aborts     int // speculative executions that abort before one may commit
		serial     uint64
	}{
		{"stm rides out 8", 0, MechSTM, stats.Validation, 8, 0},
		{"stm serializes on the 9th", 0, MechSTM, stats.Validation, 9, 1},
		{"htm rides out 2", 0, MechHTM, stats.Validation, 2, 0},
		{"htm serializes on the 3rd", 0, MechHTM, stats.Validation, 3, 1},
		{"explicit budget, stm", 3, MechSTM, stats.Validation, 4, 1},
		{"explicit budget, htm", 3, MechHTM, stats.Validation, 3, 0},
		{"explicit budget 1, htm", 1, MechHTM, stats.Validation, 2, 1},
		{"htm conflict rides out 2", 0, MechHTM, stats.Conflict, 2, 0},
		{"stm conflict rides out 8", 0, MechSTM, stats.Conflict, 8, 0},
		{"htm capacity serializes on the 1st", 0, MechHTM, stats.Capacity, 1, 1},
		{"explicit budget, htm capacity", 3, MechHTM, stats.Capacity, 1, 1},
		{"stm capacity keeps the budget", 0, MechSTM, stats.Capacity, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Mode: ModeHTM, Hybrid: true, MemWords: 1 << 16, MaxRetries: tc.maxRetries,
				HTM: htm.Config{EventAbortPerMillion: -1}})
			th := e.NewThread()
			a := e.Alloc(2)
			runs := 0
			opts := CallOpts{Resolve: func() (Mech, bool) { return tc.mech, false }}
			if err := e.AtomicOpts(th, opts, func(tx Tx) error {
				runs++
				if !tx.Irrevocable() && runs <= tc.aborts {
					throwAbort(tc.cause)
				}
				tx.Store(a, uint64(runs))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s := e.Snapshot()
			if s.SerialRuns != tc.serial || s.Aborts[tc.cause] != uint64(tc.aborts) {
				t.Fatalf("%d aborts then commit: %v", tc.aborts, s)
			}
		})
	}
}

// An injected capacity abort is a capacity abort: the call goes serial
// after it, and OnCapacity hears of it once.
func TestInjectedCapacityGoesSerial(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1, Rates: chaos.Rates{chaos.HTMCapacity: 1_000_000}})
	e := New(Config{Mode: ModeHTM, MemWords: 1 << 16, Injector: inj,
		HTM: htm.Config{EventAbortPerMillion: -1}})
	th := e.NewThread()
	a := e.Alloc(2)
	heard := 0
	if err := e.AtomicOpts(th, CallOpts{OnCapacity: func() { heard++ }}, func(tx Tx) error {
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.Aborts[stats.Capacity] != 1 || s.SerialRuns != 1 || heard != 1 || e.Load(a) != 1 {
		t.Fatalf("one injected capacity abort: heard %d, %v", heard, s)
	}
}

// BenchmarkCapturedStoreRange times a set-shaped transaction — allocate a
// block, fill 256 words (a 2 KiB value), publish it, free the one it
// replaces — against the same body filling a block an earlier transaction
// allocated, which is what every fill cost before captured stores.
func BenchmarkCapturedStoreRange(b *testing.B) {
	for _, captured := range []bool{true, false} {
		name := "captured"
		if !captured {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			// 8-word stripes, as tleserved runs: 32 orecs for the fill.
			e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, Quiesce: QuiesceAll, StripeShift: 3})
			th := e.NewThread()
			root := e.Alloc(2)
			val := pattern(1, 256)
			prev := e.Alloc(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Atomic(th, func(tx Tx) error {
					blk := tx.Alloc(256)
					target := blk
					if !captured {
						target, prev = prev, blk
					}
					tx.StoreRange(target, val)
					tx.Free(memseg.Addr(tx.Load(root)))
					tx.Store(root, uint64(target))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
