package tm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gotle/internal/memseg"
)

// The detector flags a non-transactional read of a word whose orec is held
// by a live transaction — the schedule a missing quiescence allows.
func TestRaceDetectorFlagsDirtyNontxRead(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, RaceDetect: true,
		Quiesce: QuiesceNone})
	a := e.Alloc(2)
	th := e.NewThread()
	inTxn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Atomic(th, func(tx Tx) error {
			tx.Store(a, 99)
			close(inTxn)
			<-release // hold the orec while the main goroutine reads
			return nil
		})
	}()
	<-inTxn
	_ = e.Load(a) // non-transactional read racing with the speculation
	close(release)
	wg.Wait()
	reports := e.RaceReports()
	if len(reports) == 0 {
		t.Fatal("race not detected")
	}
	if reports[0].Op != "load" || reports[0].Addr != a {
		t.Fatalf("report = %+v", reports[0])
	}
	if reports[0].String() == "" {
		t.Fatal("empty report text")
	}
}

func TestRaceDetectorQuietWhenQuiesced(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, RaceDetect: true,
		Quiesce: QuiesceAll})
	a := e.Alloc(2)
	const threads, per = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := e.NewThread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				e.Atomic(th, func(tx Tx) error {
					tx.Store(a, tx.Load(a)+1)
					return nil
				})
			}
		}(th)
	}
	wg.Wait()
	// All transactions done; non-transactional reads are safe.
	_ = e.Load(a)
	if got := e.RaceReports(); len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

func TestRaceDetectorFlagsSpeculativeFree(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, RaceDetect: true})
	blk := e.Alloc(4)
	th := e.NewThread()
	inTxn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Atomic(th, func(tx Tx) error {
			tx.Store(blk+1, 7)
			close(inTxn)
			<-release
			return nil
		})
	}()
	<-inTxn
	e.FreeTM(blk) // freeing while a transaction owns a word of the block
	close(release)
	wg.Wait()
	found := false
	for _, r := range e.RaceReports() {
		if r.Op == "free" {
			found = true
		}
	}
	if !found {
		t.Fatalf("speculative free not detected: %v", e.RaceReports())
	}
}

func TestRaceDetectorOffByDefault(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16})
	a := e.Alloc(2)
	_ = e.Load(a)
	if len(e.RaceReports()) != 0 {
		t.Fatal("reports recorded with detection disabled")
	}
}

// A nested call carrying its own per-call options flattens into the parent:
// it runs in the parent's transaction, and its Resolve is never consulted
// because the parent's mechanism and engine-wide retry budget stay in charge.
func TestAtomicRetriesNestedFlattens(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 16, MaxRetries: 5})
	a := e.Alloc(2)
	th := e.NewThread()
	err := e.Atomic(th, func(tx Tx) error {
		return e.AtomicOpts(th, CallOpts{Resolve: func() (Mech, bool) {
			t.Error("nested call resolved its own configuration")
			return MechSTM, false
		}}, func(inner Tx) error {
			inner.Store(a, 2)
			return nil
		})
	})
	if err != nil || e.Load(a) != 2 {
		t.Fatalf("nested AtomicOpts: %v, val=%d", err, e.Load(a))
	}
}

// Guard against detector overhead skew: with detection on, a normal
// workload still completes quickly and without reports.
func TestRaceDetectorNoFalsePositivesPipelineStyle(t *testing.T) {
	e := New(Config{Mode: ModeSTM, MemWords: 1 << 18, RaceDetect: true,
		Quiesce: QuiesceAll})
	q := e.Alloc(8) // tiny ring: [head, tail, slots x4]
	prod := e.NewThread()
	cons := e.NewThread()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; {
			moved := false
			err := e.Atomic(prod, func(tx Tx) error {
				h, t := tx.Load(q), tx.Load(q+1)
				if t-h >= 4 {
					return nil // full; try again
				}
				tx.Store(q+2+Addr4(t%4), uint64(i)+1)
				tx.Store(q+1, t+1)
				moved = true
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if moved {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		got := 0
		deadline := time.Now().Add(30 * time.Second)
		for got < 500 && time.Now().Before(deadline) {
			moved := false
			e.Atomic(cons, func(tx Tx) error {
				h, tl := tx.Load(q), tx.Load(q+1)
				if h == tl {
					return nil
				}
				_ = tx.Load(q + 2 + Addr4(h%4))
				tx.Store(q, h+1)
				moved = true
				return nil
			})
			if moved {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	if got := e.RaceReports(); len(got) != 0 {
		t.Fatalf("false positives: %v", got)
	}
}

// Addr4 narrows a uint64 ring index for address arithmetic in this test.
func Addr4(v uint64) memsegAddr { return memsegAddr(v) }

// memsegAddr aliases the heap address type for the helper above.
type memsegAddr = memseg.Addr
