package htm

import (
	"sync"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

func TestLiveAndReadOnly(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	if tx.Live() {
		t.Fatal("fresh tx live")
	}
	tx.Begin()
	if !tx.Live() || !tx.ReadOnly() {
		t.Fatal("begin state wrong")
	}
	tx.Store(base, 1)
	if tx.ReadOnly() {
		t.Fatal("writer flagged read-only")
	}
	tx.Commit()
	if tx.Live() {
		t.Fatal("still live after commit")
	}
}

// InvalidateBlock dooms readers and writers of the block's lines — the
// engine's pre-free pass.
func TestInvalidateBlockDoomsReaders(t *testing.T) {
	h, base := newHTM(t, Config{})
	rd := h.NewTx(1)
	rd.Begin()
	_ = rd.Load(base + 3)
	h.InvalidateBlock(base, 8)
	if _, aborted := attempt2(rd, func(tx *Tx) { _ = tx.Load(base) }); !aborted {
		t.Fatal("reader survived invalidation")
	}
}

func TestInvalidateBlockDoomsWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	wr := h.NewTx(1)
	wr.Begin()
	wr.Store(base+5, 9)
	h.InvalidateBlock(base, 8)
	if _, aborted := attempt2(wr, func(tx *Tx) { tx.Store(base, 1) }); !aborted {
		t.Fatal("writer survived invalidation")
	}
	if h.Memory().Load(base+5) != 0 {
		t.Fatal("doomed writer's buffer leaked")
	}
}

func TestInvalidateBlockSpansLines(t *testing.T) {
	h, base := newHTM(t, Config{})
	rd := h.NewTx(1)
	rd.Begin()
	// Read a word on the block's LAST line.
	_ = rd.Load(base + 100)
	h.InvalidateBlock(base, 101) // covers lines of [base, base+101)
	if _, aborted := attempt2(rd, func(tx *Tx) { _ = rd.Load(base) }); !aborted {
		t.Fatal("reader on a later line survived")
	}
}

// Write-write steal: the second writer dooms the first and takes the line
// immediately (no waiting on the victim's goroutine).
func TestWriterStealsFromActiveWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	w1 := h.NewTx(1)
	w1.Begin()
	w1.Store(base, 1)
	w2 := h.NewTx(2)
	run(w2, func(tx *Tx) { tx.Store(base, 2) }) // must not hang
	if h.Memory().Load(base) != 2 {
		t.Fatal("stealing writer's value missing")
	}
	if _, aborted := attempt2(w1, func(tx *Tx) { tx.Store(base, 3) }); !aborted {
		t.Fatal("victim writer not doomed")
	}
}

// Committing wins: once a transaction's commit succeeds, its value is in
// memory even when an attacker raced it on the same line. Either side may
// abort; a successful commit must never be silently lost.
func TestCommittingWinsAgainstWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	for i := 0; i < 100; i++ {
		want := uint64(i + 1)
		committer := h.NewTx(1)
		committer.Begin()
		committer.Store(base, want)
		committed := false
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if abortsig.From(r) == nil {
						panic(r)
					}
					committer.OnAbort()
				}
			}()
			committer.Commit()
			committed = true
		}()
		attacker := h.NewTx(2)
		run(attacker, func(tx *Tx) { tx.Store(base+memseg.WordsPerLine, want) })
		wg.Wait()
		if committed && h.Memory().Load(base) != want {
			t.Fatalf("iteration %d: committed value lost", i)
		}
		h.mem.Store(base, 0)
		committer.Release() // the next iteration takes both contexts again
		attacker.Release()
	}
}

// NontxLoad while a writer is mid-commit waits for the flush (committing
// wins) and returns the committed value.
func TestNontxLoadSeesCommittedValueAfterFlushRace(t *testing.T) {
	h, base := newHTM(t, Config{})
	for i := 0; i < 50; i++ {
		w := h.NewTx(1)
		w.Begin()
		w.Store(base, uint64(i)*2+1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() {
				if r := recover(); r != nil {
					if abortsig.From(r) == nil {
						panic(r)
					}
					w.OnAbort() // doomed by the strongly isolated read
				}
			}()
			w.Commit()
		}()
		v := h.NontxLoad(base)
		<-done
		// Either the pre-commit value or the committed value is legal; a
		// torn/garbage value is not.
		if v != 0 && v%2 == 0 {
			t.Fatalf("iteration %d: nontx read saw impossible value %d", i, v)
		}
		h.mem.Store(base, 0)
		w.Release()
	}
}

func TestNontxStoreVsActiveWriterWins(t *testing.T) {
	h, base := newHTM(t, Config{})
	w := h.NewTx(1)
	w.Begin()
	w.Store(base, 5)
	h.NontxStore(base, 77)
	if h.Memory().Load(base) != 77 {
		t.Fatal("nontx store lost")
	}
	if _, aborted := attempt2(w, func(tx *Tx) { tx.Store(base, 6) }); !aborted {
		t.Fatal("writer survived nontx store")
	}
	if h.Memory().Load(base) != 77 {
		t.Fatal("doomed writer overwrote nontx store")
	}
}

// DoomAll during an in-flight commit must not corrupt the committed state.
func TestDoomAllDuringCommits(t *testing.T) {
	h, base := newHTM(t, Config{})
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		tx := h.NewTx(uint64(i))
		slot := memseg.Addr(int(base) + i*memseg.WordsPerLine)
		wg.Add(1)
		go func(tx *Tx, slot memseg.Addr) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if abortsig.From(r) == nil {
								panic(r)
							}
							tx.OnAbort()
						}
					}()
					tx.Begin()
					tx.Store(slot, tx.Load(slot)+2)
					tx.Commit()
				}()
			}
		}(tx, slot)
	}
	for i := 0; i < 200; i++ {
		h.DoomAll(stats.Serial)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < writers; i++ {
		v := h.Memory().Load(memseg.Addr(int(base) + i*memseg.WordsPerLine))
		if v%2 != 0 {
			t.Fatalf("slot %d holds odd value %d — torn commit", i, v)
		}
	}
}
