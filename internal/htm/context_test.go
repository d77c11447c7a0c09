package htm

import (
	"slices"
	"sync"
	"testing"

	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// Tests for the hardware contexts: read sets that live in the reader, the
// probes that find them, and the life of a context across Release/NewTx.

// Readers parked inside attempts have written nothing anyone else reads —
// every line record is still zero — and yet each way of asking "who reads
// this line" finds all of them.
func TestParkedReadersAreFoundWithoutSharedState(t *testing.T) {
	const K = 5
	const W = memseg.WordsPerLine
	for name, hit := range map[string]func(h *HTM, a memseg.Addr){
		"claimLine": func(h *HTM, a memseg.Addr) {
			w := h.NewTx(K + 1)
			if _, aborted := attempt(w, func(tx *Tx) { tx.Store(a, 1) }); aborted {
				t.Error("the writer aborted: no reader was committing")
			}
		},
		"NontxStore":      func(h *HTM, a memseg.Addr) { h.NontxStore(a+1, 1) },
		"InvalidateBlock": func(h *HTM, a memseg.Addr) { h.InvalidateBlock(a-W, 3*W) },
	} {
		t.Run(name, func(t *testing.T) {
			h, base := newBigHTM(t, Config{}, 16*W)
			target, other := base+4*W, base+8*W
			var parked [K]*Tx
			for i := range parked {
				parked[i] = h.NewTx(uint64(i + 1))
				parked[i].Begin()
				_ = parked[i].Load(target)
				_ = parked[i].Load(other + memseg.Addr(i)*W) // a line of its own
			}
			for i := range h.lines {
				if h.lines[i] != (lineRec{}) {
					t.Fatalf("line record %d is not zero with only readers at work", i)
				}
			}
			if got, want := h.readers(target.Line(), h.live.Load()), uint64(1<<(K+1)-2); got != want {
				t.Fatalf("readers of the shared line = %#x, want contexts 1..%d (%#x)", got, K, want)
			}
			bystander := h.NewTx(K + 2) // reads only lines nobody touches
			bystander.Begin()
			_ = bystander.Load(base)

			hit(h, target)

			for i, tx := range parked {
				cause, aborted := attempt2(tx, func(tx *Tx) { _ = tx.Load(other) })
				if !aborted || cause != stats.Conflict {
					t.Errorf("parked reader %d: aborted=%v cause=%v, want a conflict abort", i+1, aborted, cause)
				}
			}
			if _, aborted := attempt2(bystander, func(tx *Tx) { _ = tx.Load(base + W) }); aborted {
				t.Error("a reader of other lines was doomed too")
			}
		})
	}
}

// A released context is parked, not dropped: the next taker of the id gets
// the same descriptor and stamp table, with nothing of the last owner's
// read set showing and the event stream restarted.
func TestContextReuseAcrossRelease(t *testing.T) {
	h, base := newHTM(t, Config{})
	first := h.NewTx(3)
	first.Begin()
	_ = first.Load(base + 64)
	if h.readers((base+64).Line(), h.live.Load()) != 1<<3 {
		t.Fatal("a live context's read goes unseen")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewTx on a context in use did not panic")
			}
		}()
		h.NewTx(3)
	}()
	first.OnAbort()
	first.Release()
	if h.live.Load() != 0 {
		t.Fatalf("live mask %#x after the only context was released", h.live.Load())
	}
	again := h.NewTx(3)
	if again != first || &again.stamps[0] != &first.c.stamps[0] {
		t.Fatal("the recycled id got a new descriptor or stamp table")
	}
	assertReleased(t, h, again)

	// Event aborts fall on the same attempts as on a fresh context.
	h, base = newHTM(t, Config{EventAbortPerMillion: 200_000, Seed: 7})
	events := func(tx *Tx) (at []int) {
		for i := 0; len(at) < 5; i++ {
			if cause, aborted := attempt(tx, func(tx *Tx) { _ = tx.Load(base) }); aborted && cause == stats.Event {
				at = append(at, i)
			}
		}
		return at
	}
	tx := h.NewTx(3)
	want := events(tx)
	tx.Release()
	if got := events(h.NewTx(3)); !slices.Equal(got, want) {
		t.Fatalf("event aborts at attempts %v after reuse, %v on the fresh context", got, want)
	}
}

// Contexts come and go while a writer keeps claiming the line they read.
// The claimer asks whichever contexts are live when it looks, so under
// -race this is the check that it touches nothing a NewTx or Release
// writes without synchronization.
func TestClaimerVersusContextChurn(t *testing.T) {
	h, base := newHTM(t, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := h.NewTx(0)
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			run(w, func(tx *Tx) { tx.Store(base, v) })
			h.NontxStore(base+1, v)
			h.InvalidateBlock(base, 2)
		}
	}()
	for round := 0; round < 300; round++ {
		for id := uint64(1); id <= 3; id++ {
			tx := h.NewTx(id)
			run(tx, func(tx *Tx) { _ = tx.Load(base) + tx.Load(base+1) })
			tx.Release()
		}
	}
	close(stop)
	wg.Wait()
}
