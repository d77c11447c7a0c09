// Racedetect: the T-Rex scenario (paper Section IV.C). TM.NoQuiesce is
// safe only when the transaction really privatizes nothing; this example
// shows a *faulty* privatization — a consumer takes data out of a shared
// cell and reads it non-transactionally while skipping quiescence — and
// the engine's race detector flagging it. The corrected version (quiesce
// before the private read, i.e. don't call NoQuiesce on the privatizing
// transaction) runs clean.
//
//	go run ./examples/racedetect
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gotle/internal/memseg"
	"gotle/internal/tm"
)

// runScenario executes the faulty or corrected schedule and returns the
// detector's findings.
func runScenario(skipQuiescence bool) []tm.RaceReport {
	quiesce := tm.QuiesceAll
	if skipQuiescence {
		quiesce = tm.QuiesceNone // global NoQ: the unsafe configuration
	}
	e := tm.New(tm.Config{
		Mode: tm.ModeSTM, MemWords: 1 << 16,
		Quiesce:    quiesce,
		RaceDetect: true,
	})
	cell := e.Alloc(2)  // shared pointer cell
	block := e.Alloc(4) // payload handed between threads
	e.Store(cell, uint64(block))
	e.Store(block, 42)

	// A slow writer transaction speculates on the payload.
	writerIn := make(chan struct{})
	writerGo := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	wt := e.NewThread()
	go func() {
		defer wg.Done()
		e.Atomic(wt, func(tx tm.Tx) error {
			tx.Store(block, 999)        // write-through: dirty value in place
			close(writerIn)             //gotle:allow txsafe harness choreography: signal mid-speculation so the main goroutine can race the doomed writer
			<-writerGo                  //gotle:allow txsafe harness choreography: hold the doomed transaction open until released
			return fmt.Errorf("doomed") // abort: undo runs
		})
	}()
	<-writerIn
	if !skipQuiescence {
		// Corrected schedule: release the writer before privatizing, so
		// the consumer's post-commit quiescence can wait out its undo.
		close(writerGo)
	}

	// The consumer privatizes the payload and reads it non-transactionally.
	ct := e.NewThread()
	var private uint64
	e.Atomic(ct, func(tx tm.Tx) error {
		private = tx.Load(cell)
		tx.Store(cell, 0)
		return nil
	})
	// Without quiescence the following read races with the doomed writer.
	v := e.Load(memseg.Addr(private))
	fmt.Printf("  private read observed %d (committed value is 42)\n", v)
	if skipQuiescence {
		close(writerGo)
	}
	wg.Wait()
	return e.RaceReports()
}

func main() {
	log.SetFlags(0)
	fmt.Println("faulty privatization (quiescence skipped):")
	reports := runScenario(true)
	if len(reports) == 0 {
		log.Fatal("detector missed the race")
	}
	for _, r := range reports {
		fmt.Printf("  DETECTED: %s\n", r)
	}

	fmt.Println("\ncorrected (privatizing transaction quiesces):")
	time.Sleep(10 * time.Millisecond)
	reports = runScenario(false)
	if len(reports) != 0 {
		log.Fatalf("false positives: %v", reports)
	}
	fmt.Println("  no races detected ✓")
}
