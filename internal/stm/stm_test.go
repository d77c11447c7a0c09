package stm

import (
	"math/rand"
	"sync"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
	"gotle/internal/tmclock"
)

// run executes fn as a transaction with a simple retry loop (the full engine
// lives in package tm; tests here drive raw attempts).
func run(t *Tx, fn func(*Tx)) {
	var b spinwait.Backoff
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if sig := abortsig.From(r); sig != nil {
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

// attempt runs fn once and returns the abort cause, or -1 on commit.
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

func newSTM(tb testing.TB) (*STM, memseg.Addr) {
	tb.Helper()
	mem := memseg.New(1 << 16)
	s := New(mem, Config{OrecSizeLog2: 12})
	base, ok := mem.Alloc(64)
	if !ok {
		tb.Fatal("alloc failed")
	}
	return s, base
}

func TestCommitPublishesWrites(t *testing.T) {
	s, base := newSTM(t)
	tx := s.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.Store(base, 42)
		tx.Store(base+1, 43)
	})
	if s.Memory().Load(base) != 42 || s.Memory().Load(base+1) != 43 {
		t.Fatal("committed writes not visible")
	}
}

func TestReadOwnWrite(t *testing.T) {
	s, base := newSTM(t)
	tx := s.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.Store(base, 7)
		if got := tx.Load(base); got != 7 {
			t.Errorf("read-own-write = %d, want 7", got)
		}
	})
}

func TestReadOnlyCommit(t *testing.T) {
	s, base := newSTM(t)
	w := s.NewTx(1)
	run(w, func(tx *Tx) { tx.Store(base, 5) })
	r := s.NewTx(2)
	r.Begin()
	if r.Load(base) != 5 {
		t.Fatal("read wrong value")
	}
	if !r.Commit() {
		t.Fatal("read-only commit not flagged read-only")
	}
}

// TestAbortRestoresValuesAndOrecs: an abort undoes the write-through stores
// and unlocks the orecs at a version newer than any they held before, so a
// reader whose two orec samples straddle the whole lock, write-through and
// abort cannot take the same version twice for a clean read.
func TestAbortRestoresValuesAndOrecs(t *testing.T) {
	s, base := newSTM(t)
	s.Memory().Store(base, 100)
	orec := s.orecs.For(base)
	before := orec.Load()
	reader := s.NewTx(3)
	reader.Begin()
	if got := reader.Load(base); got != 100 {
		t.Fatalf("reader saw %d, want 100", got)
	}
	tx := s.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) {
		tx.Store(base, 999)
		abortsig.Throw(stats.Explicit) // simulate user retry mid-attempt
	})
	if !aborted || cause != stats.Explicit {
		t.Fatalf("aborted=%v cause=%v", aborted, cause)
	}
	if got := s.Memory().Load(base); got != 100 {
		t.Fatalf("value after undo = %d, want 100", got)
	}
	if after := orec.Load(); tmclock.Locked(after) || after <= before {
		t.Fatalf("orec after abort = %#x, want unlocked and newer than %#x", after, before)
	}
	if reader.validate() {
		t.Fatal("a reader that logged the word before the aborted writer locked it still validates")
	}
	reader.OnAbort()
	// Orec must be unlocked: a fresh transaction can write it immediately.
	tx2 := s.NewTx(2)
	if _, ab := attempt(tx2, func(tx *Tx) { tx.Store(base, 1) }); ab {
		t.Fatal("orec still locked after abort")
	}
}

func TestUndoReverseOrder(t *testing.T) {
	s, base := newSTM(t)
	s.Memory().Store(base, 1)
	tx := s.NewTx(1)
	attempt(tx, func(tx *Tx) {
		tx.Store(base, 2)
		tx.Store(base, 3) // same word twice; undo must restore the original
		abortsig.Throw(stats.Explicit)
	})
	if got := s.Memory().Load(base); got != 1 {
		t.Fatalf("value after double-write undo = %d, want 1", got)
	}
}

func TestReaderAbortsOnLockedOrec(t *testing.T) {
	s, base := newSTM(t)
	writer := s.NewTx(1)
	writer.Begin()
	writer.Store(base, 9) // holds the orec
	reader := s.NewTx(2)
	cause, aborted := attempt(reader, func(tx *Tx) { tx.Load(base) })
	if !aborted || cause != stats.Locked {
		t.Fatalf("reader vs locked orec: aborted=%v cause=%v", aborted, cause)
	}
	writer.Commit()
}

func TestWriteWriteConflict(t *testing.T) {
	s, base := newSTM(t)
	tx1 := s.NewTx(1)
	tx1.Begin()
	tx1.Store(base, 1)
	tx2 := s.NewTx(2)
	cause, aborted := attempt(tx2, func(tx *Tx) { tx.Store(base, 2) })
	if !aborted || cause != stats.Locked {
		t.Fatalf("write-write: aborted=%v cause=%v", aborted, cause)
	}
	tx1.Commit()
	if s.Memory().Load(base) != 1 {
		t.Fatal("winner's write lost")
	}
}

// A transaction whose read is invalidated by a concurrent commit must abort
// when it tries to extend its snapshot.
func TestSnapshotExtensionFailure(t *testing.T) {
	s, base := newSTM(t)
	a, b := base, base+16
	rdr := s.NewTx(1)
	rdr.Begin()
	_ = rdr.Load(a)
	// Concurrent writer commits to a, then to b.
	w := s.NewTx(2)
	run(w, func(tx *Tx) { tx.Store(a, 1) })
	run(w, func(tx *Tx) { tx.Store(b, 2) })
	// rdr now reads b: b's orec is newer than rdr's snapshot, extension
	// revalidates a — which changed — so the attempt must abort.
	func() {
		defer func() {
			r := recover()
			if sig := abortsig.From(r); sig == nil || sig.Cause != stats.Validation {
				t.Fatalf("expected validation abort, got %v", r)
			}
			rdr.OnAbort()
		}()
		rdr.Load(b)
		t.Fatal("inconsistent read did not abort")
	}()
}

// Snapshot extension should succeed when the read set is still valid.
func TestSnapshotExtensionSuccess(t *testing.T) {
	s, base := newSTM(t)
	a, b := base, base+16
	rdr := s.NewTx(1)
	rdr.Begin()
	_ = rdr.Load(a)
	w := s.NewTx(2)
	run(w, func(tx *Tx) { tx.Store(b, 2) }) // advances clock, a untouched
	if got := rdr.Load(b); got != 2 {
		t.Fatalf("extended read = %d, want 2", got)
	}
	if !rdr.Commit() {
		t.Fatal("read-only commit failed")
	}
}

func TestCommitValidationAfterInterveningCommit(t *testing.T) {
	s, base := newSTM(t)
	a, b := base, base+16
	tx1 := s.NewTx(1)
	tx1.Begin()
	_ = tx1.Load(a)
	tx1.Store(b, 5)
	// Another transaction commits to an unrelated word so wv != rv+1,
	// forcing the commit-time validation path; the read set is intact so
	// the commit must succeed.
	w := s.NewTx(2)
	run(w, func(tx *Tx) { tx.Store(base+32, 9) })
	if tx1.Commit() {
		t.Fatal("writer flagged read-only")
	}
	if s.Memory().Load(b) != 5 {
		t.Fatal("write lost")
	}
}

func TestCommitValidationFails(t *testing.T) {
	s, base := newSTM(t)
	a, b := base, base+16
	tx1 := s.NewTx(1)
	tx1.Begin()
	_ = tx1.Load(a)
	tx1.Store(b, 5)
	w := s.NewTx(2)
	run(w, func(tx *Tx) { tx.Store(a, 1) }) // invalidates tx1's read
	defer func() {
		r := recover()
		if sig := abortsig.From(r); sig == nil || sig.Cause != stats.Validation {
			t.Fatalf("expected validation abort at commit, got %v", r)
		}
		tx1.OnAbort()
		if s.Memory().Load(b) != 0 {
			t.Fatal("aborted write leaked")
		}
	}()
	tx1.Commit()
	t.Fatal("doomed commit succeeded")
}

func TestBeginOnLivePanics(t *testing.T) {
	s, _ := newSTM(t)
	tx := s.NewTx(1)
	tx.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tx.Begin()
}

func TestCommitWithoutBeginPanics(t *testing.T) {
	s, _ := newSTM(t)
	tx := s.NewTx(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Commit without Begin did not panic")
		}
	}()
	tx.Commit()
}

// Atomicity under contention: concurrent increments must not lose updates.
func TestConcurrentIncrements(t *testing.T) {
	s, base := newSTM(t)
	const threads, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		tx := s.NewTx(uint64(i + 1))
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
	if got := s.Memory().Load(base); got != threads*per {
		t.Fatalf("counter = %d, want %d (lost updates)", got, threads*per)
	}
}

// The one contention policy left is suicide, as in ml_wt: a conflicting
// access aborts its own transaction. It must still preserve atomicity
// under contention.
func TestCMCorrectnessUnderContention(t *testing.T) {
	t.Run("suicide", func(t *testing.T) {
		s, base := newSTM(t)
		const threads, per = 6, 1500
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			tx := s.NewTx(uint64(i + 1))
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
		if got := s.Memory().Load(base); got != threads*per {
			t.Fatalf("counter = %d, want %d", got, threads*per)
		}
	})
}

// A load that extends the snapshot must re-check its orec afterwards: a
// writer that locks the stripe and commits between the load's second orec
// sample and the extend's clock read lands inside the new snapshot, so
// without the re-check the load returns the pre-commit value and the
// increment built on it is lost. Each body reads a private word first, so
// the counter load usually finds its orec newer than the snapshot and
// extends; fresh rounds give the window many chances to open.
func TestLateLoadAfterExtend(t *testing.T) {
	const threads = 6
	per, rounds := 5000, 150
	if raceEnabled {
		// Instrumented rounds run about 40x slower; a few long rounds
		// catch the lost update as reliably there.
		per, rounds = 20000, 8
	}
	for r := 0; r < rounds; r++ {
		s, base := newSTM(t)
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			tx, priv := s.NewTx(uint64(i+1)), base+memseg.Addr(8*(i+1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					run(tx, func(tx *Tx) {
						tx.Load(priv)
						tx.Store(base, tx.Load(base)+1)
					})
				}
			}()
		}
		wg.Wait()
		if got := s.Memory().Load(base); got != uint64(threads*per) {
			t.Fatalf("round %d: counter = %d, want %d (lost updates)", r, got, threads*per)
		}
	}
}

// Isolation: an invariant spanning two words (y == 2*x) must hold in every
// transactional read, under concurrent updates.
func TestTwoWordInvariant(t *testing.T) {
	per := 3000
	if raceEnabled {
		// Instrumented, 3000 rounds miss a skipped snapshot extension about
		// one run in six; five times as many catch it as reliably as the
		// plain build.
		per = 15000
	}
	s, base := newSTM(t)
	x, y := base, base+8
	run(s.NewTx(99), func(tx *Tx) {
		tx.Store(x, 1)
		tx.Store(y, 2)
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		tx := s.NewTx(uint64(i + 1))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				run(tx, func(tx *Tx) {
					v := tx.Load(x)
					tx.Store(x, v+1)
					tx.Store(y, 2*(v+1))
				})
			}
		}(tx)
	}
	for i := 0; i < 4; i++ {
		tx := s.NewTx(uint64(10 + i))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < per; j++ {
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
		}(tx)
	}
	wg.Wait()
}

// Bank transfers conserve the total balance.
func TestBankTransfersConserveTotal(t *testing.T) {
	mem := memseg.New(1 << 16)
	s := New(mem, Config{OrecSizeLog2: 12})
	const accounts = 16
	base, _ := mem.Alloc(accounts)
	for i := 0; i < accounts; i++ {
		mem.Store(base+memseg.Addr(i), 100)
	}
	const threads, per = 6, 3000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		tx := s.NewTx(uint64(i + 1))
		rng := rand.New(rand.NewSource(int64(i)))
		wg.Add(1)
		go func(tx *Tx, rng *rand.Rand) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				from := memseg.Addr(rng.Intn(accounts))
				to := memseg.Addr(rng.Intn(accounts))
				run(tx, func(tx *Tx) {
					f := tx.Load(base + from)
					if f == 0 {
						return
					}
					tx.Store(base+from, f-1)
					tx.Store(base+to, tx.Load(base+to)+1)
				})
			}
		}(tx, rng)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < accounts; i++ {
		total += mem.Load(base + memseg.Addr(i))
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d", total, accounts*100)
	}
}

func TestReadSetTracking(t *testing.T) {
	s, base := newSTM(t)
	tx := s.NewTx(1)
	tx.Begin()
	tx.Load(base)
	tx.Load(base + 16)
	if tx.ReadSetSize() != 2 {
		t.Fatalf("ReadSetSize = %d, want 2", tx.ReadSetSize())
	}
	tx.Store(base+32, 1)
	if tx.WriteSetSize() != 1 || tx.ReadOnly() {
		t.Fatalf("WriteSetSize = %d ReadOnly = %v", tx.WriteSetSize(), tx.ReadOnly())
	}
	tx.Commit()
}

func BenchmarkReadOnly10(b *testing.B) {
	s, base := newSTM(b)
	tx := s.NewTx(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tx, func(tx *Tx) {
			for j := memseg.Addr(0); j < 10; j++ {
				tx.Load(base + j)
			}
		})
	}
}

func BenchmarkWrite4(b *testing.B) {
	s, base := newSTM(b)
	tx := s.NewTx(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tx, func(tx *Tx) {
			for j := memseg.Addr(0); j < 4; j++ {
				tx.Store(base+j, uint64(i))
			}
		})
	}
}
