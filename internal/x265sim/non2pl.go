package x265sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/tmds"
)

// This file reproduces Section V of the paper: the x265 critical section
// that violated two-phase locking (Listing 3) and could not be naively
// transactionalized, and the ready-flag refactoring (Listing 4) that fixed
// it.
//
// In Listing 3 a producer acquires its output queue's lock, then *while
// holding it* produces the element — and production requires inter-thread
// communication through other critical sections (here: a request/response
// exchange with a helper thread). Under real locks this works, because the
// inner locks are acquired and released independently. Under lock elision
// the outer critical section becomes one transaction that subsumes the
// inner ones; the helper can never observe the producer's uncommitted
// request, the producer can never observe a response, and "the program
// could not complete".
//
// RunListing3 executes the pattern with a bounded in-section wait and
// reports ErrStalled when the pattern cannot make progress — which is the
// expected outcome under every transactional policy, while the pthread
// baseline completes. RunListing4 executes the refactored pattern, which
// completes under all five policies.

// ErrStalled reports that the non-two-phase-locking critical section could
// not complete under lock elision.
var ErrStalled = errors.New("x265sim: non-2PL critical section stalled under elision")

// spinBudget bounds the in-section wait for the helper's response before
// the critical section gives up. A spin is 100-200 ns and a helper that
// missed the signal wakes on its 1 ms timeout, so the budget is worth tens of
// milliseconds: at 20 000 (2-4 ms) Listing 4 stalled in 1-2 % of runs.
const spinBudget = 400_000

// demo wires the shared pieces of both listings.
type demo struct {
	r      *tle.Runtime
	outQ   *tmds.LinkedQueue
	outMu  *tle.Mutex
	reqMu  *tle.Mutex
	reqCv  *condvar.Cond
	respCv *condvar.Cond
	cell   memseg.Addr // [request, response]
	stop   atomic.Bool
	wg     sync.WaitGroup
}

// newDemo starts the helper thread that services produce requests:
// request r yields response 2r.
func newDemo(r *tle.Runtime) *demo {
	d := &demo{
		r:      r,
		outQ:   tmds.NewLinkedQueue(r.Engine()),
		outMu:  r.NewMutex("out_queue"),
		reqMu:  r.NewMutex("produce_channel"),
		reqCv:  r.NewCond(),
		respCv: r.NewCond(),
		cell:   r.Engine().Alloc(2),
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		th := r.NewThread()
		defer th.Release()
		for {
			err := d.reqMu.Await(th, d.reqCv, time.Millisecond, func(tx tm.Tx) error {
				if d.stop.Load() {
					return errCancelled
				}
				req := tx.Load(d.cell)
				if req == 0 {
					tx.NoQuiesce()
					tx.Retry()
				}
				tx.Store(d.cell, 0)
				tx.Store(d.cell+1, req*2)
				d.respCv.SignalTx(tx)
				return nil
			})
			if err != nil {
				return
			}
		}
	}()
	return d
}

// close stops the helper.
func (d *demo) close() {
	d.stop.Store(true)
	d.reqCv.Signal()
	d.wg.Wait()
}

// produceInline issues a request and spins for the response — *inside* the
// caller's transaction/critical section when called from Listing 3.
func (d *demo) produceInline(th *tm.Thread, want uint64) error {
	if err := d.reqMu.Do(th, func(tx tm.Tx) error {
		tx.Store(d.cell, want)
		d.reqCv.SignalTx(tx)
		return nil
	}); err != nil {
		return err
	}
	for spins := 0; ; spins++ {
		var resp uint64
		if err := d.reqMu.Do(th, func(tx tm.Tx) error {
			resp = tx.Load(d.cell + 1)
			return nil
		}); err != nil {
			return err
		}
		if resp == want*2 {
			return d.reqMu.Do(th, func(tx tm.Tx) error {
				tx.Store(d.cell+1, 0)
				return nil
			})
		}
		if spins >= spinBudget {
			return ErrStalled
		}
		//gotle:allow txsafe deliberate reproduction of the paper's Listing 3: the in-transaction spin-wait is the bug this demo exists to show
		runtime.Gosched()
	}
}

// RunListing3 runs the paper's Listing 3: the output queue lock is held
// across the entire produce stage. It returns the produced values under
// the pthread baseline and ErrStalled (or an equivalent failure) under the
// transactional policies.
func RunListing3(r *tle.Runtime, items int) (values []uint64, err error) {
	d := newDemo(r)
	defer d.close()
	th := r.NewThread()
	// Serial-irrevocable fallback cannot roll back the stalled section; the
	// engine reports that as a panic, which is this pattern's honest
	// failure mode ("the program could not complete"). Translate it.
	defer func() {
		if rec := recover(); rec != nil {
			values, err = nil, fmt.Errorf("%w (irrevocable section could not be cancelled: %v)", ErrStalled, rec)
		}
	}()
	for i := 1; i <= items; i++ {
		want := uint64(i)
		attempts := 0
		for {
			doErr := d.outMu.Do(th, func(tx tm.Tx) error {
				node := d.outQ.Enqueue(tx, want)
				// Listing 3: produce while the queue lock is held. The
				// helper interaction happens in nested critical sections:
				// produceInline completes sections on reqMu/respMu while
				// outMu's transaction is still speculative, which is what
				// the lockcheck tracer flags as a two-phase-locking
				// violation (TestLockcheckClassifiesListings).
				if perr := d.produceInline(th, want); perr != nil {
					return perr
				}
				d.outQ.MarkReady(tx, node)
				return nil
			})
			if doErr == nil {
				break
			}
			if errors.Is(doErr, tm.ErrRetry) {
				attempts++
				if attempts > 16 {
					return nil, ErrStalled
				}
				continue
			}
			return nil, doErr
		}
	}
	// Drain the queue to return what was produced.
	for i := 0; i < items; i++ {
		var v uint64
		err := d.outMu.Do(th, func(tx tm.Tx) error {
			x, ok := d.outQ.DequeueReady(tx)
			if !ok {
				return ErrStalled
			}
			v = x
			return nil
		})
		if err != nil {
			return nil, err
		}
		values = append(values, v)
	}
	return values, nil
}

// RunListing4 runs the ready-flag refactoring: enqueue a not-ready node in
// one short critical section, produce outside any lock, then mark the node
// ready in a second short critical section. Completes under every policy.
func RunListing4(r *tle.Runtime, items int) ([]uint64, error) {
	d := newDemo(r)
	defer d.close()
	th := r.NewThread()
	for i := 1; i <= items; i++ {
		want := uint64(i)
		var node memseg.Addr
		if err := d.outMu.Do(th, func(tx tm.Tx) error {
			node = d.outQ.Enqueue(tx, 0)
			return nil
		}); err != nil {
			return nil, err
		}
		// Produce with the queue lock released.
		if err := d.produceInline(th, want); err != nil {
			return nil, err
		}
		if err := d.outMu.Do(th, func(tx tm.Tx) error {
			d.outQ.SetValue(tx, node, want*2)
			d.outQ.MarkReady(tx, node)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	var values []uint64
	for i := 0; i < items; i++ {
		var v uint64
		err := d.outMu.Await(th, d.respCv, time.Millisecond, func(tx tm.Tx) error {
			x, ok := d.outQ.DequeueReady(tx)
			if !ok {
				tx.Retry()
			}
			v = x
			return nil
		})
		if err != nil {
			return nil, err
		}
		values = append(values, v)
	}
	return values, nil
}
