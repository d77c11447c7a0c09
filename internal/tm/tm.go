// Package tm is the transactional-memory engine: it composes the STM
// (package stm), the simulated HTM (package htm), the quiescence manager
// (package epoch) and the serial-irrevocability lock into the programming
// model the paper's hand instrumentation targets — the C++ TM Technical
// Specification's atomic and synchronized blocks, extended with the paper's
// proposed TM.NoQuiesce API (Section IV.B).
//
// A downstream user works with three types:
//
//   - Engine: one TM instance over one simulated heap. Construction selects
//     the execution mode (STM or HTM) and the quiescence policy.
//   - Thread: a per-goroutine context (ids, logs, stats, epoch slot, block
//     cache).
//   - Tx: the access interface handed to an atomic block's body.
//
// Atomic blocks retry on conflict; after Config.MaxRetries retries
// they acquire the serial lock and run irrevocably, just as GCC's TM
// "disables concurrency, runs in isolation, and re-enables concurrent
// transactional execution upon its completion" (Section II.B). Synchronized
// blocks go serial immediately. ErrRetry implements condition waiting: the
// body observes an unsatisfied predicate, calls Tx.Retry, and the caller
// (typically a condition variable or a spin loop) re-executes later.
package tm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gotle/internal/chaos"
	"gotle/internal/epoch"
	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/stm"
)

// Mode selects the TM implementation executing atomic blocks.
type Mode int

const (
	// ModeSTM executes atomic blocks in software (ml_wt-style STM).
	ModeSTM Mode = iota
	// ModeHTM executes atomic blocks on the simulated best-effort HTM.
	ModeHTM
)

func (m Mode) String() string {
	switch m {
	case ModeSTM:
		return "stm"
	case ModeHTM:
		return "htm"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Mech names the TM mechanism executing one particular atomic block. In a
// hybrid engine (Config.Hybrid) both mechanisms coexist over the one heap
// and each critical section picks one; in a single-mode engine the only
// valid mech is the engine's mode.
//
// Mixing mechanisms is sound only when the data guarded by HTM-executed
// critical sections and the data guarded by STM-executed ones are disjoint:
// the two conflict-detection schemes do not see each other. The tle layer
// maintains that invariant by assigning a mechanism per mutex and swapping
// it only under a full engine drain (Engine.Drain).
type Mech int

const (
	// MechDefault selects the engine's mode (STM for hybrid engines).
	MechDefault Mech = iota
	// MechSTM runs the block on the software TM.
	MechSTM
	// MechHTM runs the block on the simulated hardware TM.
	MechHTM
)

// QuiescePolicy selects when committing STM transactions quiesce. HTM never
// quiesces (strong isolation makes it unnecessary, Section IV).
type QuiescePolicy int

const (
	// QuiesceAll: every committing transaction quiesces — GCC since 2016,
	// the paper's "STM" baseline in Figure 5.
	QuiesceAll QuiescePolicy = iota
	// QuiesceWriters: only writing transactions quiesce — GCC before 2016.
	// Does not support proxy privatization (Listing 1).
	QuiesceWriters
	// QuiesceNone: no transaction quiesces — the paper's unsafe "NoQ"
	// configuration. Transactions that free memory still quiesce, since the
	// allocator requires it.
	QuiesceNone
)

func (p QuiescePolicy) String() string {
	switch p {
	case QuiesceAll:
		return "all"
	case QuiesceWriters:
		return "writers"
	case QuiesceNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ErrRetry is returned by Atomic when the block's body called Tx.Retry: the
// transaction aborted cleanly because a predicate it waits on is false.
// The caller decides how to wait before re-executing (spin or condvar).
var ErrRetry = errors.New("tm: transaction requested retry")

// Config parameterises an Engine.
type Config struct {
	// Mode selects STM or HTM execution. Default ModeSTM.
	Mode Mode
	// MemWords sizes the simulated heap (default 1<<22 words = 32 MiB).
	MemWords int
	// Quiesce selects the STM quiescence policy. Default QuiesceAll.
	Quiesce QuiescePolicy
	// HonorNoQuiesce enables the paper's TM.NoQuiesce API: a transaction
	// that calls Tx.NoQuiesce skips post-commit quiescence. With
	// Quiesce=QuiesceAll this is the paper's "SelectNoQ" configuration.
	// The STM is always free to ignore the call (Section IV.B); disabling
	// this reproduces the baseline "STM" configuration.
	HonorNoQuiesce bool
	// Hybrid builds both the STM and the simulated HTM over the one heap,
	// so individual atomic blocks can select their mechanism via
	// CallOpts.Resolve (the adaptive per-lock policy controller requires
	// this). Mode still selects the default mechanism for calls that do
	// not resolve one. Threads of a hybrid engine consume HTM contexts,
	// so at most htm.MaxThreads threads may be live at once.
	Hybrid bool
	// MaxRetries is the number of retries an atomic block makes after its
	// first aborted attempt: the block falls back to serial-irrevocable
	// execution when attempt MaxRetries+1 aborts. Zero selects the default
	// for the mechanism each attempt ran under — 2 for HTM (3 attempts), 8
	// for STM (9) — so a hybrid engine's calls get the budget of the policy
	// they resolve to, not of Mode. An HTM attempt's capacity abort spends
	// no budget and goes serial at once, as libitm's does (DESIGN.md §6).
	MaxRetries int
	// StripeShift configures the STM orec table (words per orec, log2).
	// The table has one orec per stripe of the heap, rounded up to a power
	// of two and capped at 1<<20 (stm.Config.OrecSizeLog2).
	StripeShift int
	// DeferredReclaim moves the allocator-safety quiescence of freeing STM
	// commits off the commit path: a commit that skips policy quiescence
	// parks its freed blocks on its Thread and returns without waiting;
	// the thread frees them on a later commit, once every transaction that
	// was active when they were parked has finished, or in Thread.Release
	// (see reclaim.go).
	DeferredReclaim bool
	// HTM configures the hardware simulation.
	HTM htm.Config
	// Injector, when non-nil, threads the chaos fault-injection layer
	// through the whole stack: the engine consults it for forced
	// serial-mode entry and epoch-slot stalls and hands it down to the STM
	// (validation aborts, delayed orec release) and the HTM (conflict and
	// capacity aborts). Nil disables injection at zero overhead beyond a
	// pointer test per site.
	Injector *chaos.Injector
}

// Engine is one TM instance.
type Engine struct {
	cfg    Config
	mem    *memseg.Memory
	stm    *stm.STM
	htm    *htm.HTM
	epochs *epoch.Manager
	serial serialLock
	ctr    *stats.Counters
	inj    *chaos.Injector
	nextID atomic.Uint64

	// idle keeps what Thread.Release hands back for the next NewThread: the
	// thread's id — under HTM the id space is the hardware context space
	// (htm.MaxThreads), so short-lived worker threads must return their
	// ids — and its block cache, emptied, so a cache too is paid for once
	// per id.
	idle struct {
		sync.Mutex
		threads []idleThread
	}
}

// idleThread is a released thread's id and block cache.
type idleThread struct {
	id uint64
	mc *memseg.Cache
}

// New constructs an engine. The zero Config selects STM with quiescence
// after every transaction (the GCC default the paper measures against).
func New(cfg Config) *Engine {
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	e := &Engine{
		cfg:    cfg,
		mem:    memseg.New(cfg.MemWords),
		epochs: epoch.NewManager(),
		ctr:    stats.NewCounters(),
		inj:    cfg.Injector,
	}
	e.serial.epochs = e.epochs
	if cfg.Mode != ModeSTM && cfg.Mode != ModeHTM {
		panic(fmt.Sprintf("tm: unknown mode %d", cfg.Mode))
	}
	if cfg.Hybrid || cfg.Mode == ModeSTM {
		e.stm = stm.New(e.mem, stm.Config{
			StripeShift: cfg.StripeShift,
			Injector:    cfg.Injector,
		})
	}
	if cfg.Hybrid || cfg.Mode == ModeHTM {
		hcfg := cfg.HTM
		hcfg.Injector = cfg.Injector
		e.htm = htm.New(e.mem, hcfg)
	}
	return e
}

// HasMech reports whether the engine can execute atomic blocks on mech.
func (e *Engine) HasMech(m Mech) bool {
	switch m {
	case MechSTM:
		return e.stm != nil
	case MechHTM:
		return e.htm != nil
	default:
		return true
	}
}

// defaultMech is the mechanism used by calls that do not resolve one.
func (e *Engine) defaultMech() Mech {
	if e.cfg.Mode == ModeHTM {
		return MechHTM
	}
	return MechSTM
}

// Drain executes fn while the engine is fully serialized: the serial write
// lock is held, every in-flight attempt, HTM (doomed) or STM, has committed
// or aborted and left its epoch slot, and no new attempt can start until fn
// returns. The commit actions after an attempt — quiescence, frees, Tx.Defer
// functions — may still be running. The tle layer uses it to swap a mutex's
// execution policy while no elided critical section is inside an attempt.
func (e *Engine) Drain(fn func()) {
	e.serial.wlock(func() {
		if e.htm != nil {
			e.htm.DoomAll(stats.Serial)
		}
	})
	fn()
	e.serial.wunlock()
}

// Injector returns the engine's fault injector (nil when chaos is disabled).
func (e *Engine) Injector() *chaos.Injector { return e.inj }

// Mode reports the engine's execution mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Memory exposes the simulated heap for non-transactional setup (loading
// input data, reading results after workers have quiesced).
func (e *Engine) Memory() *memseg.Memory { return e.mem }

// Stats returns the engine's counters.
func (e *Engine) Stats() *stats.Counters { return e.ctr }

// Snapshot is shorthand for Stats().Snapshot().
func (e *Engine) Snapshot() stats.Snapshot { return e.ctr.Snapshot() }

// Load performs a non-transactional read. Under HTM it is strongly
// isolated: it participates in conflict detection like a real cache access.
// Under STM it is a plain read — privatization safety is the caller's
// responsibility, via quiescence.
func (e *Engine) Load(a memseg.Addr) uint64 {
	if e.htm != nil {
		return e.htm.NontxLoad(a)
	}
	return e.mem.Load(a)
}

// Store performs a non-transactional write (strongly isolated under HTM).
func (e *Engine) Store(a memseg.Addr, v uint64) {
	if e.htm != nil {
		e.htm.NontxStore(a, v)
		return
	}
	e.mem.Store(a, v)
}

// Alloc allocates a block non-transactionally (setup code).
func (e *Engine) Alloc(n int) memseg.Addr {
	a, ok := e.mem.Alloc(n)
	if !ok {
		panic("tm: simulated heap exhausted")
	}
	return a
}

// Free releases a block non-transactionally. The caller must guarantee no
// transaction can still reach it.
func (e *Engine) Free(a memseg.Addr) { e.mem.Free(a) }
