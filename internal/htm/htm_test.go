package htm

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
)

// run retries fn until it commits (tests only; the engine owns real policy).
func run(t *Tx, fn func(*Tx)) {
	var b spinwait.Backoff
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if abortsig.From(r) != nil {
						t.OnAbort()
						ok = false
						return
					}
					panic(r)
				}
			}()
			t.Begin()
			fn(t)
			t.Commit()
			return true
		}()
		if ok {
			return
		}
		b.Wait()
	}
}

// attempt runs fn once, returning the abort cause or aborted=false.
func attempt(t *Tx, fn func(*Tx)) (cause stats.AbortCause, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig := abortsig.From(r); sig != nil {
				t.OnAbort()
				cause, aborted = sig.Cause, true
				return
			}
			panic(r)
		}
	}()
	t.Begin()
	fn(t)
	t.Commit()
	return 0, false
}

// newHTM builds an HTM with event aborts disabled (deterministic tests).
func newHTM(tb testing.TB, cfg Config) (*HTM, memseg.Addr) {
	tb.Helper()
	if cfg.EventAbortPerMillion == 0 {
		cfg.EventAbortPerMillion = -1 // rng.Intn(1e6) < -1 never fires
	}
	mem := memseg.New(1 << 16)
	h := New(mem, cfg)
	base, ok := mem.Alloc(1024)
	if !ok {
		tb.Fatal("alloc failed")
	}
	return h, base
}

func TestCommitPublishes(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	tx.Store(base, 42)
	if h.Memory().Load(base) != 0 {
		t.Fatal("buffered write leaked to memory before commit")
	}
	if tx.Commit() {
		t.Fatal("writer flagged read-only")
	}
	if h.Memory().Load(base) != 42 {
		t.Fatal("committed write not visible")
	}
}

func TestReadOwnWrite(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.Store(base, 7)
		if tx.Load(base) != 7 {
			t.Error("read-own-write failed")
		}
	})
}

func TestReadOnlyCommit(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	if !tx.Commit() {
		t.Fatal("read-only commit not flagged")
	}
}

// A read-only attempt doomed after its last access must not commit: the
// writer that doomed it may have flushed between two of its reads.
func TestDoomedReadOnlyCannotCommit(t *testing.T) {
	h, base := newHTM(t, Config{})
	reader := h.NewTx(1)
	reader.Begin()
	_ = reader.Load(base)
	run(h.NewTx(2), func(tx *Tx) { tx.Store(base, 5) })
	cause, aborted := attempt2(reader, func(*Tx) {})
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed read-only commit: aborted=%v cause=%v, want a conflict abort", aborted, cause)
	}
}

func TestAbortDiscardsBuffer(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	attempt(tx, func(tx *Tx) {
		tx.Store(base, 99)
		abortsig.Throw(stats.Explicit)
	})
	if h.Memory().Load(base) != 0 {
		t.Fatal("aborted buffered write reached memory")
	}
	// Line claims must be released.
	tx2 := h.NewTx(2)
	if _, ab := attempt(tx2, func(tx *Tx) { tx.Store(base, 1) }); ab {
		t.Fatal("line still claimed after abort")
	}
}

// A writer dooms a concurrent reader of the same line (requester wins).
func TestWriterDoomsReader(t *testing.T) {
	h, base := newHTM(t, Config{})
	reader := h.NewTx(1)
	reader.Begin()
	_ = reader.Load(base)
	writer := h.NewTx(2)
	run(writer, func(tx *Tx) { tx.Store(base, 5) })
	cause, aborted := attempt2(reader, func(tx *Tx) { _ = tx.Load(base + 64) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed reader: aborted=%v cause=%v", aborted, cause)
	}
}

// attempt2 continues an already-begun transaction.
func attempt2(t *Tx, fn func(*Tx)) (cause stats.AbortCause, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig := abortsig.From(r); sig != nil {
				t.OnAbort()
				cause, aborted = sig.Cause, true
				return
			}
			panic(r)
		}
	}()
	fn(t)
	t.Commit()
	return 0, false
}

// A reader dooms a concurrent (active) writer of the same line.
func TestReaderDoomsWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	writer := h.NewTx(1)
	writer.Begin()
	writer.Store(base, 5)
	reader := h.NewTx(2)
	reader.Begin()
	if got := reader.Load(base); got != 0 {
		t.Fatalf("reader saw uncommitted value %d", got)
	}
	reader.Commit()
	cause, aborted := attempt2(writer, func(tx *Tx) { tx.Store(base+64, 1) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed writer: aborted=%v cause=%v", aborted, cause)
	}
	if h.Memory().Load(base) != 0 {
		t.Fatal("doomed writer's buffer leaked")
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	h, base := newHTM(t, Config{WriteCapacityLines: 4})
	tx := h.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < 5; i++ {
			tx.Store(base+memseg.Addr(i*memseg.WordsPerLine), 1)
		}
	})
	if !aborted || cause != stats.Capacity {
		t.Fatalf("capacity: aborted=%v cause=%v", aborted, cause)
	}
}

func TestReadCapacityAbort(t *testing.T) {
	h, base := newHTM(t, Config{ReadCapacityLines: 4})
	tx := h.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < 5; i++ {
			_ = tx.Load(base + memseg.Addr(i*memseg.WordsPerLine))
		}
	})
	if !aborted || cause != stats.Capacity {
		t.Fatalf("capacity: aborted=%v cause=%v", aborted, cause)
	}
}

func TestSameLineCountsOnce(t *testing.T) {
	h, base := newHTM(t, Config{WriteCapacityLines: 2})
	tx := h.NewTx(1)
	if _, aborted := attempt(tx, func(tx *Tx) {
		for i := memseg.Addr(0); i < 8; i++ {
			tx.Store(base+i, 1) // 8 words, one line
		}
	}); aborted {
		t.Fatal("writes within one line triggered capacity abort")
	}
}

// eventPositions runs loads on a fresh descriptor until n accesses have
// been made and returns the 1-based access index of every event abort.
func eventPositions(t *testing.T, cfg Config, n int) []int {
	t.Helper()
	h, base := newHTM(t, cfg)
	tx := h.NewTx(1)
	var at []int
	for access := 0; access < n; {
		cause, aborted := attempt(tx, func(tx *Tx) {
			for access < n {
				access++
				_ = tx.Load(base)
			}
		})
		if aborted {
			if cause != stats.Event {
				t.Fatalf("access %d aborted with %v, want an event abort", access, cause)
			}
			at = append(at, access)
		}
	}
	return at
}

func TestEventAborts(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		h, base := newHTM(t, Config{EventAbortPerMillion: 1_000_000, Seed: 1})
		tx := h.NewTx(1)
		cause, aborted := attempt(tx, func(tx *Tx) { _ = tx.Load(base) })
		if !aborted || cause != stats.Event {
			t.Fatalf("event abort: aborted=%v cause=%v", aborted, cause)
		}
	})
	t.Run("never", func(t *testing.T) {
		if at := eventPositions(t, Config{EventAbortPerMillion: -1, Seed: 1}, 1_000_000); len(at) != 0 {
			t.Fatalf("%d event aborts with the rate at -1, first at access %d", len(at), at[0])
		}
	})
	t.Run("seeded", func(t *testing.T) {
		cfg := Config{EventAbortPerMillion: 5000, Seed: 7}
		a, b := eventPositions(t, cfg, 100_000), eventPositions(t, cfg, 100_000)
		if len(a) < 100 || !slices.Equal(a, b) {
			t.Fatalf("same seed, different abort positions: %d vs %d aborts", len(a), len(b))
		}
		cfg.Seed = 8
		if c := eventPositions(t, cfg, 100_000); slices.Equal(a, c) {
			t.Fatal("seeds 7 and 8 abort at identical positions")
		}
	})
	// The countdown must leave the per-access law alone: each access
	// aborts with probability p independently, so the abort count over n
	// accesses is Binomial(n, p) and the gaps between aborts are
	// geometric (half of them at or below ln 2 / p).
	t.Run("law", func(t *testing.T) {
		const n, ppm = 10_000_000, 5000
		p := float64(ppm) / 1e6
		at := eventPositions(t, Config{EventAbortPerMillion: ppm, Seed: 3}, n)
		mean, sd := n*p, math.Sqrt(n*p*(1-p))
		if d := math.Abs(float64(len(at)) - mean); d > 5*sd {
			t.Fatalf("%d event aborts over %d accesses at %d ppm: %.1f sd from the binomial mean %.0f", len(at), n, ppm, d/sd, mean)
		}
		median := int(math.Floor(math.Log(0.5) / math.Log1p(-p)))
		below, prev := 0, 0
		for _, pos := range at {
			if pos-prev <= median {
				below++
			}
			prev = pos
		}
		want := 1 - math.Pow(1-p, float64(median))
		got := float64(below) / float64(len(at))
		if tol := 5 * math.Sqrt(want*(1-want)/float64(len(at))); math.Abs(got-want) > tol {
			t.Fatalf("%.4f of gaps are <= %d accesses, a geometric law gives %.4f (tolerance %.4f)", got, median, want, tol)
		}
	})
}

func TestDoomAll(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	h.DoomAll(stats.Serial)
	cause, aborted := attempt2(tx, func(tx *Tx) { _ = tx.Load(base) })
	if !aborted || cause != stats.Serial {
		t.Fatalf("DoomAll: aborted=%v cause=%v", aborted, cause)
	}
}

func TestNontxStoreDoomsReader(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	h.NontxStore(base, 123) // strong isolation: must doom the reader
	cause, aborted := attempt2(tx, func(tx *Tx) { _ = tx.Load(base) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("nontx store vs reader: aborted=%v cause=%v", aborted, cause)
	}
	if h.Memory().Load(base) != 123 {
		t.Fatal("nontx store lost")
	}
}

func TestNontxLoadDoomsWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	tx.Store(base, 55)
	if got := h.NontxLoad(base); got != 0 {
		t.Fatalf("nontx load saw uncommitted value %d", got)
	}
	if _, aborted := attempt2(tx, func(tx *Tx) { tx.Store(base, 56) }); !aborted {
		t.Fatal("writer not doomed by nontx load")
	}
}

func TestNewTxRejectsBigID(t *testing.T) {
	h, _ := newHTM(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewTx(64) did not panic")
		}
	}()
	h.NewTx(MaxThreads)
}

func TestBeginOnLivePanics(t *testing.T) {
	h, _ := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tx.Begin()
}

func TestConcurrentIncrements(t *testing.T) {
	h, base := newHTM(t, Config{})
	const threads, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		tx := h.NewTx(uint64(i))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				run(tx, func(tx *Tx) {
					tx.Store(base, tx.Load(base)+1)
				})
			}
		}(tx)
	}
	wg.Wait()
	if got := h.Memory().Load(base); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

// Readers must never see a torn pair, whoever else is at work on the two
// lines: transactional writers of the pair, and a bystander whose
// non-transactional stores (to another word of x's line) and block
// invalidations (of y's line) doom readers and writers through the same
// probes of the contexts' read sets that a write claim makes.
func TestTwoWordInvariant(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			h, base := newHTM(t, Config{})
			x, y := base, base+128 // distinct lines
			init := h.NewTx(9)
			run(init, func(tx *Tx) {
				tx.Store(x, 1)
				tx.Store(y, 2)
			})
			init.Release()
			var wg, bystander sync.WaitGroup
			for i := 0; i < threads; i++ {
				tx := h.NewTx(uint64(i))
				wg.Add(1)
				go func(tx *Tx, writes bool) {
					defer wg.Done()
					for j := 0; j < 2000; j++ {
						if writes {
							run(tx, func(tx *Tx) {
								v := tx.Load(x)
								tx.Store(x, v+1)
								tx.Store(y, 2*(v+1))
							})
							continue
						}
						var gx, gy uint64
						run(tx, func(tx *Tx) {
							gx = tx.Load(x)
							gy = tx.Load(y)
						})
						if gy != 2*gx {
							t.Errorf("invariant broken: x=%d y=%d", gx, gy)
							return
						}
					}
				}(tx, i%2 == 0)
			}
			stop := make(chan struct{})
			bystander.Add(1)
			go func() {
				defer bystander.Done()
				for n := uint64(0); ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					h.NontxStore(x+1, n)
					h.InvalidateBlock(y, 2)
					runtime.Gosched()
				}
			}()
			wg.Wait()
			close(stop)
			bystander.Wait()
			if gx, gy := h.Memory().Load(x), h.Memory().Load(y); gx != uint64(1+2000*((threads+1)/2)) || gy != 2*gx {
				t.Fatalf("after %d writers x 2000 increments: x=%d y=%d", (threads+1)/2, gx, gy)
			}
		})
	}
}
