package stm

import (
	"sync"
	"testing"

	"gotle/internal/memseg"
)

// newStripedSTM builds an STM with 8-word (cache-line) stripes, the
// configuration range operations exist to amortize.
func newStripedSTM(tb testing.TB) (*STM, memseg.Addr) {
	tb.Helper()
	mem := memseg.New(1 << 16)
	s := New(mem, Config{OrecSizeLog2: 12, StripeShift: 3})
	base, ok := mem.Alloc(256)
	if !ok {
		tb.Fatal("alloc failed")
	}
	return s, base
}

// TestRangeRoundTrip checks StoreRange/LoadRange equivalence with the
// scalar protocol across stripe boundaries and misaligned spans.
func TestRangeRoundTrip(t *testing.T) {
	for _, shift := range []int{0, 3, 5} {
		mem := memseg.New(1 << 16)
		s := New(mem, Config{OrecSizeLog2: 12, StripeShift: shift})
		base, _ := mem.Alloc(256)
		tx := s.NewTx(1)

		src := make([]uint64, 77) // spans ~10 stripes at shift 3, misaligned
		for i := range src {
			src[i] = uint64(i * 1000001)
		}
		run(tx, func(tx *Tx) {
			tx.StoreRange(base+5, src)
		})
		for i, want := range src {
			if got := mem.Load(base + 5 + memseg.Addr(i)); got != want {
				t.Fatalf("shift %d: word %d = %d, want %d", shift, i, got, want)
			}
		}
		dst := make([]uint64, len(src))
		run(tx, func(tx *Tx) {
			tx.LoadRange(base+5, dst)
		})
		for i, want := range src {
			if dst[i] != want {
				t.Fatalf("shift %d: LoadRange word %d = %d, want %d", shift, i, dst[i], want)
			}
		}
	}
}

// TestRangeReadsOwnWrites checks that a range load observes the same
// transaction's scalar and range write-through values.
func TestRangeReadsOwnWrites(t *testing.T) {
	s, base := newStripedSTM(t)
	tx := s.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.Store(base+2, 7)
		tx.StoreRange(base+8, []uint64{1, 2, 3})
		var got [12]uint64
		tx.LoadRange(base, got[:])
		if got[2] != 7 || got[8] != 1 || got[9] != 2 || got[10] != 3 {
			t.Fatalf("own writes not visible through LoadRange: %v", got)
		}
	})
}

// TestRangeLogsOncePerStripe checks the amortization contract: one read
// entry and one lock per covering stripe, not per word.
func TestRangeLogsOncePerStripe(t *testing.T) {
	s, base := newStripedSTM(t)
	tx := s.NewTx(1)
	// base is allocator-aligned oddly; pick an aligned span: 32 words
	// starting at a stripe boundary cover exactly 4 stripes of 8 words.
	start := (base + 7) &^ 7
	tx.Begin()
	var dst [32]uint64
	tx.LoadRange(start, dst[:])
	if n := tx.ReadSetSize(); n != 4 {
		t.Fatalf("read set after 32-word LoadRange = %d entries, want 4", n)
	}
	tx.StoreRange(start, dst[:])
	if n := len(tx.locks); n != 4 {
		t.Fatalf("lock set after 32-word StoreRange = %d entries, want 4", n)
	}
	if n := len(tx.undo); n != 32 {
		t.Fatalf("undo log = %d entries, want 32 (rollback stays per-word)", n)
	}
	tx.Commit()
}

// TestRangeAbortRollsBack checks that OnAbort undoes a partially built
// range write exactly.
func TestRangeAbortRollsBack(t *testing.T) {
	s, base := newStripedSTM(t)
	tx := s.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.StoreRange(base, []uint64{10, 20, 30, 40})
	})
	tx.Begin()
	tx.StoreRange(base, []uint64{11, 21, 31, 41})
	tx.OnAbort()
	for i, want := range []uint64{10, 20, 30, 40} {
		if got := s.Memory().Load(base + memseg.Addr(i)); got != want {
			t.Fatalf("word %d = %d after abort, want %d", i, got, want)
		}
	}
}

// TestRangeConflictDetected checks that a range read is validated at
// commit: a concurrent commit to any covered stripe aborts the reader.
func TestRangeConflictDetected(t *testing.T) {
	s, base := newStripedSTM(t)
	reader := s.NewTx(1)
	writer := s.NewTx(2)

	reader.Begin()
	var dst [16]uint64
	reader.LoadRange(base, dst[:])
	reader.Store(base+100, 1) // make it a writer so Commit validates

	run(writer, func(tx *Tx) {
		tx.Store(base+9, 99) // second stripe of the reader's range
	})

	if _, aborted := func() (c int, aborted bool) {
		defer func() {
			if r := recover(); r != nil {
				reader.OnAbort()
				aborted = true
			}
		}()
		reader.Commit()
		return 0, false
	}(); !aborted {
		t.Fatal("reader committed despite a conflicting commit inside its range")
	}
}

// TestRangeConcurrentCounters hammers range ops from multiple goroutines:
// each transaction reads a 24-word block, increments every word, and
// writes it back. The per-word sums must equal the transaction count —
// lost updates would mean a stripe was acquired or validated incorrectly.
func TestRangeConcurrentCounters(t *testing.T) {
	s, base := newStripedSTM(t)
	const workers = 4
	const rounds = 300
	const span = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			tx := s.NewTx(id)
			var buf [span]uint64
			for i := 0; i < rounds; i++ {
				run(tx, func(tx *Tx) {
					tx.LoadRange(base+1, buf[:]) // misaligned on purpose
					for j := range buf {
						buf[j]++
					}
					tx.StoreRange(base+1, buf[:])
				})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	for i := 0; i < span; i++ {
		if got := s.Memory().Load(base + 1 + memseg.Addr(i)); got != workers*rounds {
			t.Fatalf("word %d = %d, want %d (lost update)", i, got, workers*rounds)
		}
	}
}
