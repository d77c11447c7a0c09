package htm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// Tests for the flat descriptor: the write log and its generation-stamped
// index, the read set kept as generation stamps in the context's own table,
// the write-line slice whose membership test is the shared line record, and
// the resets between attempts.

// newBigHTM builds an HTM over a heap large enough for thousands of lines,
// event aborts off, and returns a line-aligned region of the given size.
func newBigHTM(tb testing.TB, cfg Config, words int) (*HTM, memseg.Addr) {
	tb.Helper()
	if cfg.EventAbortPerMillion == 0 {
		cfg.EventAbortPerMillion = -1
	}
	mem := memseg.New(4 * words)
	base, ok := mem.Alloc(words + memseg.WordsPerLine)
	if !ok {
		tb.Fatal("alloc failed")
	}
	aligned := (base + memseg.WordsPerLine - 1) &^ (memseg.WordsPerLine - 1)
	return New(mem, cfg), aligned
}

// assertReleased fails if any line record still carries a claim, a claimer
// would still take any line for read by the descriptor's context (a stamp
// equal to the published generation), or the descriptor still counts lines.
func assertReleased(t *testing.T, h *HTM, tx *Tx) {
	t.Helper()
	if tx.nReads != 0 || len(tx.writeLines) != 0 {
		t.Fatalf("descriptor still counts %d read / %d write lines", tx.nReads, len(tx.writeLines))
	}
	if pub := tx.c.state.Load(); pub != stateOf(tx.gen, stInactive) {
		t.Fatalf("published state %#x, want inactive under the descriptor's generation %d", pub, tx.gen)
	}
	for i := range h.lines {
		if w := h.lines[i].writer.Load(); w != 0 {
			t.Fatalf("line %d not released: writer=%d", i, w)
		}
		if r := h.readers(uint32(i), 1<<tx.id); r != 0 {
			t.Fatalf("line %d: a claimer would find context %d reading it", i, tx.id)
		}
	}
}

// Random Load/Store/LoadRange/StoreRange sequences against a plain map:
// reads see the attempt's own writes, the last write to an address wins, a
// commit leaves the heap equal to the model and an abort leaves it alone.
// Transaction sizes range from one word to a few thousand, so the index
// grows mid-attempt several times and later small attempts run on an index
// an earlier one left large.
func TestDifferentialAgainstMapModel(t *testing.T) {
	const words = 1 << 14
	h, base := newBigHTM(t, Config{WriteCapacityLines: 4096}, words)
	tx := h.NewTx(3)
	rng := rand.New(rand.NewSource(42))
	heap := map[memseg.Addr]uint64{} // the model of committed memory
	next := uint64(1)

	for round := 0; round < 600; round++ {
		pending := map[memseg.Addr]uint64{}
		nOps := 1 + rng.Intn(12)
		if round%25 == 0 {
			nOps = 600 // a large attempt: forces index growth
		}
		span := 64
		if round%3 == 0 {
			span = words // spread out, or packed into a few lines
		}
		willAbort := rng.Intn(4) == 0
		expect := func(a memseg.Addr) uint64 {
			if v, ok := pending[a]; ok {
				return v
			}
			return heap[a]
		}
		startGen := tx.gen
		cause, aborted := attempt(tx, func(tx *Tx) {
			for op := 0; op < nOps; op++ {
				a := base + memseg.Addr(rng.Intn(span))
				n := 1 + rng.Intn(24)
				if int(a-base)+n > words {
					n = words - int(a-base)
				}
				switch rng.Intn(4) {
				case 0:
					if got, want := tx.Load(a), expect(a); got != want {
						t.Fatalf("round %d: Load(%d) = %d, model %d", round, a, got, want)
					}
				case 1:
					next++
					tx.Store(a, next)
					pending[a] = next
				case 2:
					dst := make([]uint64, n)
					tx.LoadRange(a, dst)
					for i, got := range dst {
						if want := expect(a + memseg.Addr(i)); got != want {
							t.Fatalf("round %d: LoadRange(%d)[%d] = %d, model %d", round, a, i, got, want)
						}
					}
				case 3:
					src := make([]uint64, n)
					for i := range src {
						next++
						src[i] = next
						pending[a+memseg.Addr(i)] = next
					}
					tx.StoreRange(a, src)
				}
			}
			if tx.ReadOnly() != (len(pending) == 0) {
				t.Fatalf("round %d: ReadOnly = %v with %d model writes", round, tx.ReadOnly(), len(pending))
			}
			if len(tx.writes) != len(pending) {
				t.Fatalf("round %d: log holds %d entries for %d distinct addresses", round, len(tx.writes), len(pending))
			}
			if willAbort {
				abortsig.Throw(stats.Explicit)
			}
		})
		if aborted != willAbort {
			t.Fatalf("round %d: aborted=%v (cause %v), wanted %v", round, aborted, cause, willAbort)
		}
		if tx.gen != startGen+1 {
			t.Fatalf("round %d: generation moved %d -> %d over one attempt", round, startGen, tx.gen)
		}
		if !aborted {
			for a, v := range pending {
				heap[a] = v
			}
		}
		for a := base; a < base+words; a++ {
			if got := h.Memory().Load(a); got != heap[a] {
				t.Fatalf("round %d (aborted=%v): heap[%d] = %d, model %d", round, aborted, a, got, heap[a])
			}
		}
	}
	if len(tx.index) <= minIndexCells {
		t.Fatalf("index never grew (%d cells): the large rounds did not exercise growth", len(tx.index))
	}
	assertReleased(t, h, tx)
}

// When the 32-bit generation wraps, index cells and read stamps written
// 2^32 attempts ago carry the generation the new attempt is about to use.
func TestGenerationWrap(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	stale, other, read := base+5, base+200, base+400
	attempt(tx, func(tx *Tx) { // generation 1 leaves a cell for stale and a stamp for read
		tx.Store(stale, 111)
		_ = tx.Load(read)
		abortsig.Throw(stats.Explicit)
	})
	if got := tx.stamps[read.Line()].Load(); got != 1 || tx.gen != 2 {
		t.Fatalf("first attempt stamped %d and left generation %d, want 1 and 2", got, tx.gen)
	}
	tx.gen = math.MaxUint32 - 1 // two attempts short of the wrap
	tx.c.state.Store(stateOf(tx.gen, stInactive))
	for _, want := range []uint32{math.MaxUint32, 1} {
		if _, aborted := attempt(tx, func(tx *Tx) { tx.Store(other, tx.Load(other)+1) }); aborted {
			t.Fatal("pre-wrap attempt aborted")
		}
		if tx.gen != want {
			t.Fatalf("generation = %d, want %d (0 is the stamp of fresh cells)", tx.gen, want)
		}
	}
	assertReleased(t, h, tx)
	// The third attempt runs under generation 1 again, like the first.
	if _, aborted := attempt(tx, func(tx *Tx) {
		if r := h.readers(read.Line(), h.live.Load()); r != 0 {
			t.Errorf("a line read 2^32 generations ago counts as read now (readers %#x)", r)
		}
		_ = tx.Load(read)
		if tx.nReads != 1 {
			t.Errorf("read set holds %d lines after the attempt's first read, want 1", tx.nReads)
		}
		tx.Store(other, 7) // non-empty log, so loads probe the index
		if got := tx.Load(stale); got != 0 {
			t.Errorf("after wrap Load saw %d from an attempt 2^32 generations old", got)
		}
		if got := tx.Load(other); got != 7 {
			t.Errorf("read-own-write after wrap = %d, want 7", got)
		}
	}); aborted {
		t.Fatal("post-wrap attempt aborted")
	}
	if got := h.Memory().Load(stale); got != 0 {
		t.Fatalf("stale buffered value %d reached memory", got)
	}
}

// A transaction that fills the read and write sets must leave nothing
// behind for the one-line transactions after it: no claims, no stale
// buffered values, no allocation, and no work proportional to its size.
func TestSmallTxAfterLargeTx(t *testing.T) {
	const lines = 4000
	h, base := newBigHTM(t, Config{WriteCapacityLines: 4096, ReadCapacityLines: 4096}, lines*memseg.WordsPerLine)
	tx := h.NewTx(2)
	lineAddr := func(i int) memseg.Addr { return base + memseg.Addr(i*memseg.WordsPerLine) }
	if _, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < lines; i++ {
			tx.Store(lineAddr(i), tx.Load(lineAddr(i)+1)+uint64(i)+1)
		}
		if tx.nReads != lines || len(tx.writeLines) != lines {
			t.Errorf("large attempt tracks %d read / %d write lines, want %d each", tx.nReads, len(tx.writeLines), lines)
		}
	}); aborted {
		t.Fatal("4000-line transaction aborted under a 4096-line budget")
	}
	assertReleased(t, h, tx)
	for i := 0; i < lines; i++ {
		if got := h.Memory().Load(lineAddr(i)); got != uint64(i)+1 {
			t.Fatalf("line %d: committed %d, want %d", i, got, i+1)
		}
	}
	grown := len(tx.index)
	if grown < 2*lines {
		t.Fatalf("index has %d cells after %d buffered writes", grown, lines)
	}

	// The large attempt buffered lineAddr(7); memory has moved on since.
	h.NontxStore(lineAddr(7), 777)
	small := func() {
		if _, aborted := attempt(tx, func(tx *Tx) {
			tx.Store(lineAddr(9), tx.Load(lineAddr(9))+1)
			if got := tx.Load(lineAddr(7)); got != 777 {
				t.Fatalf("small attempt read %d at an address the large one buffered, memory holds 777", got)
			}
			if len(tx.writes) != 1 || len(tx.writeLines) != 1 || tx.nReads != 2 {
				t.Fatalf("small attempt state: %d writes, %d write lines, %d read lines", len(tx.writes), len(tx.writeLines), tx.nReads)
			}
		}); aborted {
			t.Fatal("small transaction aborted")
		}
	}
	small()
	if n := testing.AllocsPerRun(200, small); n != 0 {
		t.Fatalf("small transaction after a large one allocates %.1f/op", n)
	}
	if len(tx.index) != grown {
		t.Fatalf("index resized %d -> %d cells by one-line transactions", grown, len(tx.index))
	}
	assertReleased(t, h, tx)
}

// A doomed attempt whose write claim was stolen no longer holds the line,
// so the record says "not mine" when it stores there again. It must stop
// there — not charge the line a second time, and not take the claim back
// from the transaction that won it.
func TestStolenWriteClaimOnDoomedAttempt(t *testing.T) {
	h, base := newHTM(t, Config{})
	loser, winner := h.NewTx(1), h.NewTx(2)
	line := base.Line()
	loser.Begin()
	loser.Store(base, 1)
	winner.Begin()
	winner.Store(base, 2) // dooms loser, steals the claim
	if got := h.lines[line].writer.Load(); got != winner.claim() {
		t.Fatalf("writer = %d after the steal, want winner's %d", got, winner.claim())
	}
	// The interleaving Store's entry check cannot see: doomed after the
	// check, before the line is tracked.
	cause, aborted := attempt2(loser, func(tx *Tx) { tx.trackWriteLine(line) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed attempt re-tracking its stolen line: aborted=%v cause=%v, want a conflict abort", aborted, cause)
	}
	if got := h.lines[line].writer.Load(); got != winner.claim() {
		t.Fatalf("writer = %d after loser's abort, want winner's %d still", got, winner.claim())
	}
	if winner.c.state.Load() != stateOf(winner.gen, stActive) {
		t.Fatal("the doomed attempt doomed the transaction that beat it")
	}
	if winner.Commit() {
		t.Fatal("winner flagged read-only")
	}
	if got := h.Memory().Load(base); got != 2 {
		t.Fatalf("memory = %d, want winner's 2", got)
	}
	assertReleased(t, h, loser)
	// The loser's next attempt starts clean on the same line.
	if _, aborted := attempt(loser, func(tx *Tx) { tx.Store(base, tx.Load(base)+1) }); aborted {
		t.Fatal("loser's retry aborted")
	}
	if got := h.Memory().Load(base); got != 3 {
		t.Fatalf("memory = %d after retry, want 3", got)
	}
}

// Capacity counts distinct lines in each set, however often and through
// whichever call a line is touched.
func TestCapacityCountsDistinctLines(t *testing.T) {
	const W = memseg.WordsPerLine
	h, base := newBigHTM(t, Config{WriteCapacityLines: 2, ReadCapacityLines: 2}, 64*W)
	tx := h.NewTx(1)
	buf := make([]uint64, 2*W+1)

	if cause, aborted := attempt(tx, func(tx *Tx) {
		for rep := 0; rep < 3; rep++ {
			for i := memseg.Addr(0); i < 2*W; i++ {
				tx.Store(base+i, uint64(i)) // two lines, every word, three times
			}
			tx.StoreRange(base, buf[:2*W])
			for i := memseg.Addr(0); i < 2*W; i++ {
				_ = tx.Load(base + 8*W + i) // two other lines
			}
			tx.LoadRange(base+8*W, buf[:2*W])
			_ = tx.Load(base + 3) // own write: served from the buffer, no read line
		}
		if len(tx.writeLines) != 2 || tx.nReads != 2 {
			t.Errorf("tracking %d write / %d read lines, want 2 / 2", len(tx.writeLines), tx.nReads)
		}
	}); aborted {
		t.Fatalf("two lines per set under a two-line budget aborted (%v)", cause)
	}

	for name, body := range map[string]func(tx *Tx){
		"third write line":       func(tx *Tx) { tx.Store(base, 1); tx.Store(base+W, 1); tx.Store(base+2*W, 1) },
		"store range into third": func(tx *Tx) { tx.StoreRange(base, buf[:2*W+1]) },
		"third read line":        func(tx *Tx) { tx.Load(base); tx.Load(base + W); tx.Load(base + 2*W) },
		"load range into third":  func(tx *Tx) { tx.LoadRange(base, buf[:2*W+1]) },
	} {
		if cause, aborted := attempt(tx, body); !aborted || cause != stats.Capacity {
			t.Errorf("%s: aborted=%v cause=%v, want a capacity abort", name, aborted, cause)
		}
		assertReleased(t, h, tx)
	}

	// A line both read and written costs one entry in each set.
	if _, aborted := attempt(tx, func(tx *Tx) {
		tx.Store(base, tx.Load(base)+1)
		tx.Store(base+W+1, tx.Load(base+W)+1)
	}); aborted {
		t.Fatal("read-modify-write of two lines under two-line budgets aborted")
	}
}

func BenchmarkTxReadOnly16(b *testing.B) {
	h, base := newHTM(b, Config{})
	tx := h.NewTx(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Begin()
		for j := memseg.Addr(0); j < 16; j++ {
			_ = tx.Load(base + j*memseg.WordsPerLine)
		}
		tx.Commit()
	}
}

func BenchmarkTxRMW(b *testing.B) {
	h, base := newHTM(b, Config{})
	tx := h.NewTx(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Begin()
		tx.Store(base, tx.Load(base)+1)
		tx.Commit()
	}
}

// BenchmarkTxRMWLiveContexts is BenchmarkTxRMW with other contexts live and
// idle, each having read the line in an attempt long over: the write claim
// asks every one of them, two loads apiece.
func BenchmarkTxRMWLiveContexts(b *testing.B) {
	for _, others := range []int{1, 7, 63} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			h, base := newHTM(b, Config{})
			tx := h.NewTx(0)
			for id := 1; id <= others; id++ {
				run(h.NewTx(uint64(id)), func(tx *Tx) { _ = tx.Load(base) })
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Begin()
				tx.Store(base, tx.Load(base)+1)
				tx.Commit()
			}
		})
	}
}

// BenchmarkSmallTxAfterLargeTx is BenchmarkTxRMW on a descriptor that has
// run one 4000-line transaction: the two must cost the same.
func BenchmarkSmallTxAfterLargeTx(b *testing.B) {
	const lines = 4000
	h, base := newBigHTM(b, Config{WriteCapacityLines: 4096, ReadCapacityLines: 4096}, lines*memseg.WordsPerLine)
	tx := h.NewTx(1)
	tx.Begin()
	for i := memseg.Addr(0); i < lines; i++ {
		tx.Store(base+i*memseg.WordsPerLine, tx.Load(base+i*memseg.WordsPerLine)+1)
	}
	tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Begin()
		tx.Store(base, tx.Load(base)+1)
		tx.Commit()
	}
}

// Two threads' descriptors must not share a cache line: every field of Tx is
// owner-written, several on every access.
func TestTxIsWholeCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(Tx{}); sz%64 != 0 {
		t.Fatalf("sizeof(Tx) = %d, not a multiple of 64: pad it (see the last field)", sz)
	}
	h, _ := newHTM(t, Config{})
	a, b := uintptr(unsafe.Pointer(h.NewTx(1))), uintptr(unsafe.Pointer(h.NewTx(2)))
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("descriptors at %#x and %#x are not line-aligned", a, b)
	}
}
