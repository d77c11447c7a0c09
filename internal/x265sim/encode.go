package x265sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/tmds"
	"gotle/internal/video"
)

// Task words pack (frame, row, ctu-column): f<<20 | r<<10 | c.
const (
	taskRowShift   = 10
	taskFrameShift = 20
	taskFieldMask  = 1<<taskRowShift - 1
	closedTask     = ^uint64(0)
)

func packTask(f, r, c int) uint64 {
	return uint64(f)<<taskFrameShift | uint64(r)<<taskRowShift | uint64(c)
}

func unpackTask(v uint64) (f, r, c int) {
	return int(v >> taskFrameShift), int(v >> taskRowShift & taskFieldMask), int(v & taskFieldMask)
}

var errCancelled = errors.New("x265sim: encode cancelled")

// encoder holds one run's shared state.
type encoder struct {
	r      *tle.Runtime
	cfg    Config
	frames []*video.Frame
	rows   int
	cols   int
	// rowsPerSlice partitions rows into cfg.Slices independent slices.
	rowsPerSlice int

	// Locks and condition variables, mirroring the paper's inventory.
	laMu   *tle.Mutex // lookahead lock
	ctuMu  *tle.Mutex // CTURows lock (wavefront progress + reference rows)
	taskMu *tle.Mutex // bonded task group lock
	costMu *tle.Mutex // cost lock (global rate metadata)
	outMu  *tle.Mutex // output queue lock (Listing 4)

	laCv    *condvar.Cond
	ctuCv   *condvar.Cond
	taskCv  *condvar.Cond
	frameCv *condvar.Cond
	outCv   *condvar.Cond

	lookQ *tmds.Ring
	taskQ *tmds.Ring
	outQ  *tmds.LinkedQueue

	laClosed    memseg.Addr
	tasksClosed memseg.Addr
	refRows     memseg.Addr // per-frame completed-row counters
	totalCost   memseg.Addr

	frameState []memseg.Addr // per-frame wavefront state: [rowsDone, progress...]
	outNodes   []memseg.Addr // per-frame output-queue node
	rowCosts   [][]int64     // per (frame,row) accumulated cost; unique owner
	frameCost  []int64
	order      []int

	failed atomic.Bool
	errCh  chan error
}

func (en *encoder) fail(err error) {
	en.failed.Store(true)
	select {
	case en.errCh <- err:
	default:
	}
}

// Encode runs the wavefront encoder over frames under the runtime's
// policy.
func Encode(r *tle.Runtime, frames []*video.Frame, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if len(frames) == 0 {
		return Result{}, nil
	}
	w, h := frames[0].W, frames[0].H
	rows := (h + cfg.CTUSize - 1) / cfg.CTUSize
	cols := (w + cfg.CTUSize - 1) / cfg.CTUSize
	if cfg.Slices > rows {
		cfg.Slices = rows
	}
	if rows > taskFieldMask || cols > taskFieldMask {
		return Result{}, fmt.Errorf("x265sim: frame of %d×%d CTUs exceeds task encoding", cols, rows)
	}
	e := r.Engine()
	rps := (rows + cfg.Slices - 1) / cfg.Slices
	en := &encoder{
		r: r, cfg: cfg, frames: frames, rows: rows, cols: cols,
		rowsPerSlice: rps,
		laMu:         r.NewMutex("lookahead"), ctuMu: r.NewMutex("ctuRows"),
		taskMu: r.NewMutex("bondedTaskGroup"), costMu: r.NewMutex("cost"),
		outMu: r.NewMutex("outputQueue"),
		laCv:  r.NewCond(), ctuCv: r.NewCond(), taskCv: r.NewCond(),
		frameCv: r.NewCond(), outCv: r.NewCond(),
		lookQ:       tmds.NewRing(e, 2*cfg.FrameThreads),
		taskQ:       tmds.NewRing(e, cfg.FrameThreads*rows+cfg.Workers+8),
		outQ:        tmds.NewLinkedQueue(e),
		laClosed:    e.Alloc(2),
		tasksClosed: e.Alloc(2),
		refRows:     e.Alloc(len(frames)),
		totalCost:   e.Alloc(2),
		frameState:  make([]memseg.Addr, len(frames)),
		outNodes:    make([]memseg.Addr, len(frames)),
		rowCosts:    make([][]int64, len(frames)),
		frameCost:   make([]int64, len(frames)),
		errCh:       make(chan error, cfg.Workers+cfg.FrameThreads+2),
	}
	for f := range frames {
		en.rowCosts[f] = make([]int64, rows)
	}
	start := time.Now()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); en.scheduler() }()
	for i := 0; i < cfg.FrameThreads; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); en.frameThread() }()
	}
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); en.worker() }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); en.writer() }()

	wg.Wait()
	select {
	case err := <-en.errCh:
		return Result{}, err
	default:
	}
	res := Result{
		FrameCosts:  en.frameCost,
		OutputOrder: en.order,
		TotalCost:   int64(e.Load(en.totalCost)),
		Elapsed:     time.Since(start),
	}
	// Release run state (the per-frame blocks were freed as frames
	// completed).
	e.Free(en.laClosed)
	e.Free(en.tasksClosed)
	e.Free(en.refRows)
	e.Free(en.totalCost)
	return res, nil
}

// scheduler feeds frames into the lookahead in input order, pre-enqueuing
// each frame's not-ready output node (Listing 4, producer lines 1–5), then
// closes the lookahead.
func (en *encoder) scheduler() {
	th := en.r.NewThread()
	defer th.Release()
	for f := range en.frames {
		var node memseg.Addr
		err := en.outMu.Do(th, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			tx.NoQuiesce()
			node = en.outQ.Enqueue(tx, uint64(f))
			return nil
		})
		if err != nil {
			en.fail(fmt.Errorf("scheduler output node: %w", err))
			return
		}
		// Raw by design (the Listing 4 hand-off): the scheduler writes
		// outNodes[f] strictly before publishing f into lookQ inside the
		// laMu transaction below, and the frame thread reads outNodes[fIdx]
		// only after drawing fIdx from lookQ — the transactional queue
		// hand-off is the happens-before edge, not a shared lock.
		en.outNodes[f] = node
		err = en.laMu.Await(th, en.laCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			tx.NoQuiesce()
			if !en.lookQ.Enqueue(tx, uint64(f)) {
				tx.Retry()
			}
			en.laCv.SignalTx(tx)
			return nil
		})
		if err != nil {
			en.fail(fmt.Errorf("scheduler lookahead: %w", err))
			return
		}
	}
	err := en.laMu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		tx.Store(en.laClosed, 1)
		en.laCv.BroadcastTx(tx, en.cfg.FrameThreads)
		return nil
	})
	if err != nil {
		en.fail(fmt.Errorf("scheduler close: %w", err))
	}
}

// frameThread admits frames from the lookahead, spawns their wavefront,
// waits for completion, then marks the output node ready and privatizes
// the frame's wavefront state.
func (en *encoder) frameThread() {
	th := en.r.NewThread()
	defer th.Release()
	e := en.r.Engine()
	for {
		fIdx := -1
		err := en.laMu.Await(th, en.laCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			v, ok := en.lookQ.Dequeue(tx)
			if !ok {
				if tx.Load(en.laClosed) == 1 {
					fIdx = -1
					return nil
				}
				tx.NoQuiesce()
				tx.Retry()
			}
			fIdx = int(v)
			en.laCv.SignalTx(tx) // wake the scheduler blocked on a full lookahead
			return nil
		})
		if err != nil {
			if !errors.Is(err, errCancelled) {
				en.fail(fmt.Errorf("frame thread admit: %w", err))
			}
			return
		}
		if fIdx < 0 {
			return // lookahead drained and closed
		}
		st := e.Alloc(en.rows + 1) // [rowsDone, progress per row]
		en.frameState[fIdx] = st
		// Spawn the first row of every slice: slices have no cross-slice
		// wavefront dependencies, so they all start immediately.
		for sliceStart := 0; sliceStart < en.rows; sliceStart += en.rowsPerSlice {
			row := sliceStart
			err = en.taskMu.Await(th, en.taskCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
				if en.failed.Load() {
					return errCancelled
				}
				tx.NoQuiesce()
				if !en.taskQ.Enqueue(tx, packTask(fIdx, row, 0)) {
					tx.Retry()
				}
				en.taskCv.SignalTx(tx)
				return nil
			})
			if err != nil {
				en.fail(fmt.Errorf("frame thread spawn: %w", err))
				return
			}
		}
		// Wait for the wavefront to finish every row.
		err = en.ctuMu.Await(th, en.frameCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			if tx.Load(st) < uint64(en.rows) {
				tx.NoQuiesce()
				tx.Retry()
			}
			return nil
		})
		if err != nil {
			en.fail(fmt.Errorf("frame thread wait: %w", err))
			return
		}
		var total int64
		for _, c := range en.rowCosts[fIdx] {
			total += c
		}
		en.frameCost[fIdx] = total
		// Listing 4, producer lines 7–9: mark ready in its own short
		// critical section. Freeing the wavefront state here privatizes it
		// (the committing transaction quiesces before reuse).
		err = en.outMu.Do(th, func(tx tm.Tx) error {
			en.outQ.MarkReady(tx, en.outNodes[fIdx])
			tx.Free(st)
			en.outCv.SignalTx(tx)
			return nil
		})
		if err != nil {
			en.fail(fmt.Errorf("frame thread finish: %w", err))
			return
		}
	}
}

// worker pulls row tasks from the bonded task group and advances wavefront
// rows, parking blocked rows back on the queue (x265's findJob behaviour).
func (en *encoder) worker() {
	th := en.r.NewThread()
	defer th.Release()
	for {
		var v uint64
		err := en.taskMu.Await(th, en.taskCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			x, ok := en.taskQ.Dequeue(tx)
			if !ok {
				if tx.Load(en.tasksClosed) == 1 {
					v = closedTask
					return nil
				}
				tx.NoQuiesce()
				tx.Retry()
			}
			v = x
			return nil
		})
		if err != nil {
			if !errors.Is(err, errCancelled) {
				en.fail(fmt.Errorf("worker dequeue: %w", err))
			}
			return
		}
		if v == closedTask {
			return
		}
		if err := en.processRow(th, v); err != nil {
			if !errors.Is(err, errCancelled) {
				en.fail(fmt.Errorf("worker row: %w", err))
			}
			return
		}
	}
}

// processRow advances row r of frame f from CTU column c, re-parking the
// continuation when a dependency is unsatisfied.
func (en *encoder) processRow(th *tm.Thread, task uint64) error {
	f, r, c := unpackTask(task)
	st := en.frameState[f]
	cur := en.frames[f]
	var ref *video.Frame
	if f > 0 {
		ref = en.frames[f-1]
	}
	size := en.cfg.CTUSize
	for ; c < en.cols; c++ {
		runnable := false
		err := en.ctuMu.Do(th, func(tx tm.Tx) error {
			tx.NoQuiesce() // read-only dependency check privatizes nothing
			ok := true
			if r%en.rowsPerSlice != 0 {
				// Wavefront dependency on the row above, within the slice.
				need := uint64(min(c+2, en.cols))
				if tx.Load(st+1+memseg.Addr(r-1)) < need {
					ok = false
				}
			}
			if f > 0 && c == 0 {
				need := uint64(min(r+2, en.rows))
				if tx.Load(en.refRows+memseg.Addr(f-1)) < need {
					ok = false
				}
			}
			runnable = ok
			return nil
		})
		if err != nil {
			return err
		}
		if !runnable {
			// Park the continuation and let this worker find other work —
			// x265's bonded groups do the same rather than blocking a pool
			// thread on a row dependency.
			err := en.taskMu.Await(th, en.taskCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
				if en.failed.Load() {
					return errCancelled
				}
				tx.NoQuiesce()
				if !en.taskQ.Enqueue(tx, packTask(f, r, c)) {
					tx.Retry()
				}
				en.taskCv.SignalTx(tx)
				return nil
			})
			if err != nil {
				return err
			}
			// Pace re-dispatch: progress tickets arrive at CTU completion.
			en.ctuCv.Wait(en.cfg.WaitTimeout)
			return nil
		}
		cost := encodeCTU(cur, ref, c*size, r*size, en.cfg)
		en.rowCosts[f][r] += cost
		err = en.ctuMu.Do(th, func(tx tm.Tx) error {
			tx.NoQuiesce() // publishes progress; privatizes nothing
			tx.Store(st+1+memseg.Addr(r), uint64(c+1))
			en.ctuCv.SignalTx(tx)
			return nil
		})
		if err != nil {
			return err
		}
		if c == 1 && r+1 < en.rows && (r+1)%en.rowsPerSlice != 0 {
			// The wavefront widens: row r+1 becomes startable once row r
			// has completed two CTUs.
			err := en.taskMu.Await(th, en.taskCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
				if en.failed.Load() {
					return errCancelled
				}
				tx.NoQuiesce()
				if !en.taskQ.Enqueue(tx, packTask(f, r+1, 0)) {
					tx.Retry()
				}
				en.taskCv.SignalTx(tx)
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	// Row complete: bump rowsDone and the reference-row counter, then
	// account the row's cost under the cost lock.
	rowCost := en.rowCosts[f][r]
	err := en.ctuMu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		tx.Store(st, tx.Load(st)+1)
		tx.Store(en.refRows+memseg.Addr(f), tx.Load(en.refRows+memseg.Addr(f))+1)
		en.ctuCv.SignalTx(tx)
		en.frameCv.SignalTx(tx)
		return nil
	})
	if err != nil {
		return err
	}
	return en.costMu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		tx.Store(en.totalCost, tx.Load(en.totalCost)+uint64(rowCost))
		return nil
	})
}

// writer drains the output queue in order (Listing 4, consumer side).
func (en *encoder) writer() {
	th := en.r.NewThread()
	defer th.Release()
	for i := 0; i < len(en.frames); i++ {
		var v uint64
		err := en.outMu.Await(th, en.outCv, en.cfg.WaitTimeout, func(tx tm.Tx) error {
			if en.failed.Load() {
				return errCancelled
			}
			x, ok := en.outQ.DequeueReady(tx)
			if !ok {
				//gotle:allow txsafe guarded: the retry path dequeued (and freed) nothing, and the rollback discards the attempt entirely
				tx.NoQuiesce()
				tx.Retry()
			}
			v = x
			return nil
		})
		if err != nil {
			if !errors.Is(err, errCancelled) {
				en.fail(fmt.Errorf("writer: %w", err))
			}
			return
		}
		en.order = append(en.order, int(v))
	}
	// All frames emitted: shut the worker pool down.
	err := en.taskMu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		tx.Store(en.tasksClosed, 1)
		en.taskCv.BroadcastTx(tx, en.cfg.Workers)
		return nil
	})
	if err != nil {
		en.fail(fmt.Errorf("writer close: %w", err))
	}
}
