package pbzip

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/tmds"
)

// errCancelled aborts the remaining stages after another stage failed.
var errCancelled = errors.New("pbzip: pipeline cancelled")

// run executes the producer → workers → writer pipeline with the given
// per-block transform and output assembler.
func run(r *tle.Runtime, cfg Config, blocks [][]byte,
	work func([]byte) ([]byte, error),
	assemble func([][]byte) []byte) (Result, error) {

	n := len(blocks)
	if n == 0 {
		return Result{Output: assemble(nil)}, nil
	}
	if n > memseg.MaxAlloc {
		return Result{}, fmt.Errorf("pbzip: %d blocks exceed the flag-array limit %d", n, memseg.MaxAlloc)
	}
	e := r.Engine()
	p := &pipeline{
		r:       r,
		cfg:     cfg,
		inQ:     tmds.NewRing(e, 2*cfg.Workers), // PBZip2's queue sizing
		inMu:    r.NewMutex("fifo"),
		inNotE:  r.NewCond(),
		inNotF:  r.NewCond(),
		outMu:   r.NewMutex("output"),
		outCv:   r.NewCond(),
		done:    e.Alloc(n),
		blocks:  n,
		inData:  blocks,
		outData: make([][]byte, n),
	}
	start := time.Now()

	errCh := make(chan error, cfg.Workers+2)
	var wg sync.WaitGroup

	// Producer: enqueue one descriptor per block, then one sentinel per
	// worker. It never privatizes TM memory, so it always elects NoQuiesce
	// (paper, Listing 2: "the producer need never quiesce").
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := r.NewThread()
		defer th.Release()
		for seq := 0; seq < n; seq++ {
			desc := seq // captured
			err := p.inMu.Await(th, p.inNotF, cfg.WaitTimeout, func(tx tm.Tx) error {
				if p.failed.Load() {
					return errCancelled
				}
				tx.NoQuiesce()
				// Check capacity before any write: waiting must precede the
				// critical section's mutations (the discipline every policy
				// shares, including the lock-based baseline).
				if p.inQ.Len(tx) >= p.inQ.Cap() {
					tx.Retry()
				}
				d := tx.Alloc(descSize)
				tx.Store(d+descSeq, uint64(desc))
				tx.Store(d+descLen, uint64(len(p.inData[desc])))
				p.inQ.Enqueue(tx, uint64(d))
				p.inNotE.SignalTx(tx)
				if cfg.Log != nil {
					cfg.Log.Printf(tx, th, "enqueued block %d (%d bytes)", desc, len(p.inData[desc]))
				}
				return nil
			})
			if err != nil {
				p.fail(errCh, fmt.Errorf("producer: %w", err))
				return
			}
		}
		for i := 0; i < cfg.Workers; i++ {
			err := p.inMu.Await(th, p.inNotF, cfg.WaitTimeout, func(tx tm.Tx) error {
				if p.failed.Load() {
					return errCancelled
				}
				tx.NoQuiesce()
				if p.inQ.Len(tx) >= p.inQ.Cap() {
					tx.Retry()
				}
				p.inQ.Enqueue(tx, sentinel)
				p.inNotE.SignalTx(tx)
				return nil
			})
			if err != nil {
				p.fail(errCh, fmt.Errorf("producer sentinel: %w", err))
				return
			}
		}
	}()

	// Workers: dequeue a descriptor (privatizing it), transform the block
	// outside any critical section, publish the result, mark done.
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := r.NewThread()
			defer th.Release()
			for {
				var handle uint64
				err := p.inMu.Await(th, p.inNotE, cfg.WaitTimeout, func(tx tm.Tx) error {
					if p.failed.Load() {
						return errCancelled
					}
					v, ok := p.inQ.Dequeue(tx)
					if !ok {
						// Nothing extracted: nothing privatized, quiescence
						// is pure overhead (the consumer branch of
						// Listing 2).
						tx.NoQuiesce()
						tx.Retry()
					}
					handle = v
					p.inNotF.SignalTx(tx)
					return nil
				})
				if err != nil {
					p.fail(errCh, fmt.Errorf("worker dequeue: %w", err))
					return
				}
				if handle == sentinel {
					return
				}
				// The descriptor is now private: the dequeuing transaction
				// quiesced (policy permitting), so these plain reads cannot
				// race with doomed transactions' undo writes.
				d := memseg.Addr(handle)
				seq := int(r.Engine().Load(d + descSeq))
				length := int(r.Engine().Load(d + descLen))
				if seq < 0 || seq >= n || length != len(p.inData[seq]) {
					p.fail(errCh, fmt.Errorf("worker: corrupt descriptor seq=%d len=%d", seq, length))
					return
				}
				r.Engine().FreeTM(d)
				out, err := work(p.inData[seq])
				if err != nil {
					p.fail(errCh, fmt.Errorf("worker block %d: %w", seq, err))
					return
				}
				p.outData[seq] = out
				// Publish completion transactionally and wake the writer.
				err = p.outMu.Do(th, func(tx tm.Tx) error {
					tx.NoQuiesce() // flag write publishes; nothing privatized
					tx.Store(p.done+memseg.Addr(seq), 1)
					p.outCv.SignalTx(tx)
					if cfg.Log != nil {
						cfg.Log.Printf(tx, th, "block %d done (%d -> %d bytes)",
							seq, len(p.inData[seq]), len(out))
					}
					return nil
				})
				if err != nil {
					p.fail(errCh, fmt.Errorf("worker publish: %w", err))
					return
				}
			}
		}()
	}

	// Writer: consume completion flags in sequence order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := r.NewThread()
		defer th.Release()
		for seq := 0; seq < n; seq++ {
			err := p.outMu.Await(th, p.outCv, cfg.WaitTimeout, func(tx tm.Tx) error {
				if p.failed.Load() {
					return errCancelled
				}
				if tx.Load(p.done+memseg.Addr(seq)) == 0 {
					tx.NoQuiesce()
					tx.Retry()
				}
				return nil
			})
			if err != nil {
				p.fail(errCh, fmt.Errorf("writer: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}
	e.Free(p.done)
	return Result{
		Output:  assemble(p.outData),
		Blocks:  n,
		Elapsed: time.Since(start),
	}, nil
}
