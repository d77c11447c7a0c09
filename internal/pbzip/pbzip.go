// Package pbzip reproduces the structure of PBZip2, the parallel BZip2 of
// the paper's first case study (Section III): a serial-parallel-serial
// pipeline in which a producer splits the input into blocks, a pool of
// consumer threads compresses (or decompresses) the blocks independently,
// and an ordered writer reassembles the output.
//
// All inter-stage coordination runs through elidable critical sections
// (tle.Mutex) and transaction-friendly condition variables, exactly where
// the real PBZip2 uses pthread mutexes and condvars; the compression work
// itself (package bzlike) happens outside any critical section. The TM
// traffic therefore matches the paper's description: "the main source of
// contention is for the locks protecting the inter-stage queues", with
// small critical sections and 1000ish transactions per run.
//
// Per-block descriptors live in the simulated TM heap and are freed by the
// stage that dequeues them, so worker dequeues genuinely privatize memory —
// which is what makes the quiescence policies (and the paper's Listing-2
// NoQuiesce discipline) observable:
//
//   - the producer never privatizes → it always calls Tx.NoQuiesce;
//   - a consumer privatizes only when it actually extracts a descriptor →
//     it calls Tx.NoQuiesce only on the empty path.
package pbzip

import (
	"sync/atomic"
	"time"

	"gotle/internal/bzlike"
	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tmds"
	"gotle/internal/tmlog"
)

// Config parameterises one pipeline run.
type Config struct {
	// Workers is the number of consumer threads (the paper varies 1–8).
	Workers int
	// BlockSize is the bytes per block (paper: 100 K, 300 K, 900 K).
	BlockSize int
	// WaitTimeout is the condition-variable timeout (x265-style timed
	// waits; also used here for liveness). Default 2ms.
	WaitTimeout time.Duration
	// Log, when non-nil, receives diagnostic records emitted INSIDE the
	// elided critical sections. PBZip2 "can be configured to produce
	// diagnostic output to logs while locks are held" (Section VI.c);
	// records are captured transactionally and emitted at commit, so
	// logging never forces serialization.
	Log *tmlog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BlockSize < 1024 {
		c.BlockSize = 900 * 1000
	}
	if c.WaitTimeout == 0 {
		c.WaitTimeout = 2 * time.Millisecond
	}
	return c
}

// Result reports one pipeline run.
type Result struct {
	// Output is the compressed (or decompressed) stream.
	Output []byte
	// Blocks is the number of pipeline work items.
	Blocks int
	// Elapsed is the wall-clock pipeline time.
	Elapsed time.Duration
}

// descriptor layout in TM memory: [seq, length, kind].
const (
	descSeq  = 0
	descLen  = 1
	descSize = 3
)

// sentinel handle marking worker shutdown.
const sentinel = ^uint64(0)

// pipeline carries the shared state of one run.
type pipeline struct {
	r       *tle.Runtime
	cfg     Config
	inQ     *tmds.Ring
	inMu    *tle.Mutex
	inNotE  *condvar.Cond
	inNotF  *condvar.Cond
	outMu   *tle.Mutex
	outCv   *condvar.Cond
	done    memseg.Addr // per-block completion flags
	blocks  int
	inData  [][]byte // per-seq input (Go heap; published via TM flags)
	outData [][]byte // per-seq output
	failed  atomic.Bool
}

// fail records the first error and tells the other stages to drain out.
func (p *pipeline) fail(errCh chan<- error, err error) {
	p.failed.Store(true)
	select {
	case errCh <- err:
	default:
	}
}

// Compress runs the pipeline over input and returns the framed compressed
// stream: uvarint block count, then per block uvarint length + payload.
func Compress(r *tle.Runtime, input []byte, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	blocks := splitBlocks(input, cfg.BlockSize)
	return run(r, cfg, blocks, func(b []byte) ([]byte, error) {
		return bzlike.Compress(b)
	}, frameOutput)
}

// Decompress runs the pipeline over a stream produced by Compress.
func Decompress(r *tle.Runtime, compressed []byte, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	blocks, err := unframe(compressed)
	if err != nil {
		return Result{}, err
	}
	return run(r, cfg, blocks, func(b []byte) ([]byte, error) {
		return bzlike.Decompress(b)
	}, concatOutput)
}

// splitBlocks cuts the input into blockSize pieces.
func splitBlocks(input []byte, blockSize int) [][]byte {
	if len(input) == 0 {
		return nil
	}
	n := (len(input) + blockSize - 1) / blockSize
	out := make([][]byte, 0, n)
	for off := 0; off < len(input); off += blockSize {
		end := off + blockSize
		if end > len(input) {
			end = len(input)
		}
		out = append(out, input[off:end])
	}
	return out
}
