package stm

import (
	"sync"
	"testing"

	"gotle/internal/memseg"
	"gotle/internal/stats"
)

func newCMSTM(tb testing.TB, cm CM) (*STM, memseg.Addr) {
	tb.Helper()
	mem := memseg.New(1 << 16)
	s := New(mem, Config{OrecSizeLog2: 12, CM: cm})
	base, ok := mem.Alloc(64)
	if !ok {
		tb.Fatal("alloc failed")
	}
	return s, base
}

func TestCMStrings(t *testing.T) {
	if CMSuicide.String() != "suicide" || CMPolite.String() != "polite" || CMTimestamp.String() != "timestamp" {
		t.Fatal("CM names wrong")
	}
	if CM(99).String() != "cm?" {
		t.Fatal("unknown CM name")
	}
}

// CMPolite: a reader that hits a lock briefly held by a committing writer
// should succeed without aborting once the writer finishes.
func TestPoliteWaitsOutShortLocks(t *testing.T) {
	s, base := newCMSTM(t, CMPolite)
	w := s.NewTx(1)
	w.Begin()
	w.Store(base, 5)
	done := make(chan struct{})
	go func() {
		// The reader's polite spin gives the writer time to commit.
		w.Commit()
		close(done)
	}()
	r := s.NewTx(2)
	r.Begin()
	if got := r.Load(base); got != 5 {
		t.Fatalf("polite reader got %d", got)
	}
	r.Commit()
	<-done
}

// CMPolite still aborts when the lock holder does not release in time.
func TestPoliteEventuallyAborts(t *testing.T) {
	s, base := newCMSTM(t, CMPolite)
	w := s.NewTx(1)
	w.Begin()
	w.Store(base, 5) // held indefinitely
	r := s.NewTx(2)
	cause, aborted := attempt(r, func(tx *Tx) { tx.Load(base) })
	if !aborted || cause != stats.Locked {
		t.Fatalf("aborted=%v cause=%v", aborted, cause)
	}
	w.Commit()
}

// CMTimestamp: the younger transaction aborts to the older lock holder.
func TestTimestampYoungerAborts(t *testing.T) {
	s, base := newCMSTM(t, CMTimestamp)
	older := s.NewTx(1)
	older.Begin()
	older.Store(base, 1)
	// Advance the clock so the next transaction is strictly younger.
	filler := s.NewTx(3)
	run(filler, func(tx *Tx) { tx.Store(base+32, 9) })
	younger := s.NewTx(2)
	cause, aborted := attempt(younger, func(tx *Tx) { tx.Store(base, 2) })
	if !aborted || cause != stats.Locked {
		t.Fatalf("younger vs older: aborted=%v cause=%v", aborted, cause)
	}
	older.Commit()
}

// CMTimestamp: the older transaction waits for the younger holder and then
// proceeds without aborting.
func TestTimestampOlderWaits(t *testing.T) {
	s, base := newCMSTM(t, CMTimestamp)
	older := s.NewTx(1)
	older.Begin() // snapshot taken now (older)
	// Clock advances; the younger transaction begins later and takes the
	// lock.
	filler := s.NewTx(3)
	run(filler, func(tx *Tx) { tx.Store(base+32, 9) })
	younger := s.NewTx(2)
	younger.Begin()
	younger.Store(base, 7)
	go func() {
		younger.Commit()
	}()
	// The older transaction's read should wait out the younger's commit.
	if got := older.Load(base); got != 7 {
		t.Fatalf("older read %d, want 7 after younger's commit", got)
	}
	older.Commit()
}

// All CMs preserve atomicity under contention.
func TestCMCorrectnessUnderContention(t *testing.T) {
	for _, cm := range []CM{CMSuicide, CMPolite, CMTimestamp} {
		cm := cm
		t.Run(cm.String(), func(t *testing.T) {
			s, base := newCMSTM(t, cm)
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
}
