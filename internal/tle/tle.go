// Package tle implements transactional lock elision: lock-based critical
// sections that execute as transactions, with the five execution policies
// the paper evaluates (Section VII):
//
//   - PolicyPthread — the baseline: a real mutex, direct memory access.
//   - PolicySTMSpin — STM elision; threads that would block on a condition
//     variable instead spin re-executing the transaction.
//   - PolicySTMCondVar — STM elision with transaction-friendly condition
//     variables.
//   - PolicySTMCondVarNoQ — as above, plus the TM.NoQuiesce API is honored,
//     selectively disabling post-commit quiescence (Section IV.B).
//   - PolicyHTMCondVar — simulated-HTM elision with condition variables.
//
// The central type is Mutex. Under the pthread policy each Mutex is a real
// lock; under the TM policies every Mutex's critical sections are elided
// onto one engine-wide transaction class — the "lock erasure" of
// Section IV.A: the TM cannot tell formerly-disjoint locks apart, so a
// serialization or quiescence anywhere affects everyone.
package tle

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/abortsig"
	"gotle/internal/chaos"
	"gotle/internal/condvar"
	"gotle/internal/htm"
	"gotle/internal/memseg"
	"gotle/internal/stats"
	"gotle/internal/tm"
)

// Policy selects how critical sections execute.
type Policy int

const (
	// PolicyPthread is the original lock-based execution.
	PolicyPthread Policy = iota
	// PolicySTMSpin elides locks with STM and spins instead of waiting.
	PolicySTMSpin
	// PolicySTMCondVar elides locks with STM and blocks on transaction-
	// friendly condition variables.
	PolicySTMCondVar
	// PolicySTMCondVarNoQ additionally honors Tx.NoQuiesce.
	PolicySTMCondVarNoQ
	// PolicyHTMCondVar elides locks with the simulated HTM.
	PolicyHTMCondVar
)

// Policies lists all five in the paper's presentation order.
var Policies = []Policy{PolicyPthread, PolicySTMSpin, PolicySTMCondVar, PolicySTMCondVarNoQ, PolicyHTMCondVar}

func (p Policy) String() string {
	switch p {
	case PolicyPthread:
		return "pthread"
	case PolicySTMSpin:
		return "stm-spin"
	case PolicySTMCondVar:
		return "stm-cv"
	case PolicySTMCondVarNoQ:
		return "stm-cv-noq"
	case PolicyHTMCondVar:
		return "htm-cv"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as printed by String) back to a
// Policy, for CLI flags.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tle: unknown policy %q", s)
}

// Transactional reports whether the policy elides locks (all but pthread).
func (p Policy) Transactional() bool { return p != PolicyPthread }

// Config parameterises a Runtime.
type Config struct {
	// MemWords sizes the simulated heap (default 1<<22).
	MemWords int
	// MaxRetries overrides the engine retry budget, the retries after a
	// section's first aborted attempt (0 = engine default: 2 for an attempt
	// that ran under HTM, so 3 attempts, and 8 for one that ran under STM).
	// An HTM capacity abort goes serial at once whatever the budget.
	MaxRetries int
	// HTM tunes the hardware simulation for PolicyHTMCondVar.
	HTM htm.Config
	// StripeShift tunes the STM orec table (words per orec, log2). The
	// table has one orec per stripe of the heap, rounded up to a power of
	// two and capped at 1<<20 (stm.Config.OrecSizeLog2).
	StripeShift int
	// Tracer, when non-nil, observes lock acquire/release events (the
	// two-phase-locking checker in package lockcheck implements it).
	Tracer Tracer
	// FaultInjector, when non-nil, threads the chaos fault-injection layer
	// (package chaos) through the TM stack: seeded, deterministic forced
	// aborts, stalls and serial entries at the engine's named fault points.
	// Production configurations leave it nil (zero overhead beyond a
	// pointer test per site); the chaos stress suite and `figures chaos` set
	// it to shake out interleaving bugs.
	FaultInjector *chaos.Injector
	// Hybrid builds both the STM and the simulated HTM into the engine, so
	// individual mutexes can be switched among the paper's transactional
	// policies at runtime (Mutex.SetPolicy; the adaptive controller in
	// package adaptive drives this). Without it, a mutex can only switch
	// among the policies its engine's single mechanism supports. Hybrid
	// threads consume HTM contexts: at most htm.MaxThreads live threads.
	Hybrid bool
	// Observe gives every NewMutex its own stats.Counters (Mutex.Observer) —
	// the per-lock counters the adaptive policy controller samples. Each
	// thread adds to its own stripe, so an observed section writes no line
	// another thread writes; off by default because it is still two or
	// three more atomic adds per section, and 12 KB per mutex.
	Observe bool
	// DeferredReclaim takes the allocator's grace period off the commit
	// path (tm.Config.DeferredReclaim): a freeing commit that skips policy
	// quiescence parks its blocks on its thread, which frees them on a
	// later commit once the transactions that could still reach them have
	// finished, or when the thread is released.
	DeferredReclaim bool
}

// Tracer observes critical-section structure for analysis tools.
type Tracer interface {
	// Acquire is called when thread tid enters the critical section of
	// mutex mid; Release when it leaves.
	Acquire(tid uint64, mid int)
	Release(tid uint64, mid int)
}

// Runtime is one application-wide elision context: a policy plus the TM
// engine all elided critical sections share.
type Runtime struct {
	policy  Policy
	engine  *tm.Engine
	tracer  Tracer
	observe bool
	nextMID atomic.Int64
}

// New constructs a runtime for the given policy (each mutex's initial
// policy; with Config.Hybrid, a transactional runtime's mutexes can be
// re-pointed individually via Mutex.SetPolicy).
func New(policy Policy, cfg Config) *Runtime {
	ecfg := tm.Config{
		MemWords:        cfg.MemWords,
		MaxRetries:      cfg.MaxRetries,
		StripeShift:     cfg.StripeShift,
		HTM:             cfg.HTM,
		Injector:        cfg.FaultInjector,
		DeferredReclaim: cfg.DeferredReclaim,
	}
	switch policy {
	case PolicyPthread:
		// The engine provides only the shared heap; critical sections run
		// under real mutexes with direct access.
		ecfg.Mode = tm.ModeSTM
	case PolicySTMSpin, PolicySTMCondVar:
		ecfg.Mode = tm.ModeSTM
		ecfg.Quiesce = tm.QuiesceAll
		ecfg.HonorNoQuiesce = false
	case PolicySTMCondVarNoQ:
		ecfg.Mode = tm.ModeSTM
		ecfg.Quiesce = tm.QuiesceAll
		ecfg.HonorNoQuiesce = true
	case PolicyHTMCondVar:
		ecfg.Mode = tm.ModeHTM
	default:
		panic(fmt.Sprintf("tle: unknown policy %d", policy))
	}
	if cfg.Hybrid {
		// Hybrid: both mechanisms are built; each mutex resolves its own
		// mechanism and NoQuiesce treatment per critical section, so the
		// engine-level knobs cover only direct Engine.Atomic callers.
		ecfg.Hybrid = true
		ecfg.Quiesce = tm.QuiesceAll
	}
	return &Runtime{policy: policy, engine: tm.New(ecfg), tracer: cfg.Tracer, observe: cfg.Observe}
}

// Policy returns the runtime's default execution policy (the policy new
// mutexes start under).
func (r *Runtime) Policy() Policy { return r.policy }

// Supports reports whether the runtime's engine can execute mutexes under
// policy p: a hybrid runtime supports all five policies; a single-mode
// runtime supports pthread plus the policies of its own mechanism.
func (r *Runtime) Supports(p Policy) bool {
	switch p {
	case PolicyPthread:
		return true
	case PolicySTMSpin, PolicySTMCondVar, PolicySTMCondVarNoQ:
		return r.engine.HasMech(tm.MechSTM)
	case PolicyHTMCondVar:
		return r.engine.HasMech(tm.MechHTM)
	default:
		return false
	}
}

// Engine exposes the underlying TM engine (heap access, stats).
func (r *Runtime) Engine() *tm.Engine { return r.engine }

// Close does nothing: a runtime owns no goroutine or file, and each
// thread's parked frees go back to the heap in tm.Thread.Release. Callers
// may still defer it, as for any resource.
func (r *Runtime) Close() {}

// NewThread registers a worker thread.
func (r *Runtime) NewThread() *tm.Thread { return r.engine.NewThread() }

// NewCond creates a condition variable for use with Await.
func (r *Runtime) NewCond() *condvar.Cond { return condvar.New() }

// Mutex is an elidable lock. Under PolicyPthread it is a real mutex; under
// the TM policies its critical sections run as transactions and the lock
// itself is erased.
//
// A Mutex is a lock or a transaction for life, as its runtime's policy
// says. A transactional one carries its own policy (initially the
// runtime's), switchable among the transactional policies with SetPolicy.
// Mixed policies are sound only under the discipline the adaptive
// controller maintains: the data a mutex guards is reached exclusively
// through that mutex's critical sections, so HTM-elided and STM-elided
// sections never race on the same words even though their conflict-
// detection schemes are blind to each other.
type Mutex struct {
	r      *Runtime
	mu     sync.Mutex
	mid    int
	name   string
	policy atomic.Int32
	obs    *stats.Counters // nil unless Config.Observe
	// resolveFn is the bound method value of resolve, created once:
	// building it inline in Do would allocate on every critical section.
	resolveFn func() (tm.Mech, bool)
	// capacityFn is the bound method value of capacity, likewise.
	capacityFn func()
	pad        [4]uint64 //nolint:unused // keep mutexes off each other's lines
	// onCapacity is the hook OnCapacity installed, if any. It sits past
	// the pad, off the line of policy, which every attempt reads.
	onCapacity atomic.Pointer[func()]
}

// LockNamer is an optional extension of Tracer. When the configured
// tracer also implements it, NewMutex reports each mutex's name and
// creation site (runtime.Caller of the NewMutex call), giving tracers
// such as lockcheck a stable lock identity to report.
type LockNamer interface {
	LockCreated(mid int, name, file string, line int)
}

// NewMutex creates an elidable mutex. The name appears in diagnostics and
// lock-order traces.
func (r *Runtime) NewMutex(name string) *Mutex {
	mid := int(r.nextMID.Add(1))
	m := &Mutex{r: r, mid: mid, name: name}
	m.resolveFn = m.resolve
	m.capacityFn = m.capacity
	m.policy.Store(int32(r.policy))
	if r.observe {
		m.obs = stats.NewCounters()
	}
	if ln, ok := r.tracer.(LockNamer); ok {
		if _, file, line, found := runtime.Caller(1); found {
			ln.LockCreated(mid, name, file, line)
		}
	}
	return m
}

// Name returns the mutex's diagnostic name.
func (m *Mutex) Name() string { return m.name }

// CurrentPolicy returns the mutex's execution policy right now. SetPolicy
// can change it under the caller; each attempt resolves its own under the
// engine's serial read lock.
func (m *Mutex) CurrentPolicy() Policy { return Policy(m.policy.Load()) }

// Observer returns the mutex's per-lock counters (nil unless the runtime
// was built with Config.Observe).
func (m *Mutex) Observer() *stats.Counters { return m.obs }

// SetPolicy moves this mutex to another transactional policy, swapping it
// under tm.Engine.Drain: every in-flight attempt, this mutex's included, has
// committed or aborted (their Tx.Defer actions may still run). Attempts that
// begin after the swap resolve the new policy; none ever runs under a
// mechanism that no longer matches the mutex's data.
//
// SetPolicy refuses PolicyPthread, every policy on a pthread runtime (a
// mutex stays a lock or a transaction for life), and a policy whose
// mechanism the engine lacks (see Runtime.Supports).
func (m *Mutex) SetPolicy(p Policy) error {
	if !p.Transactional() || !m.r.policy.Transactional() || !m.r.Supports(p) {
		return fmt.Errorf("tle: mutex %q: cannot move from %s to %s", m.name, m.CurrentPolicy(), p)
	}
	m.r.engine.Drain(func() { m.policy.Store(int32(p)) })
	return nil
}

// OnCapacity makes every capacity abort of one of m's HTM attempts call fn,
// just before the section goes serial (tm.CallOpts.OnCapacity). fn runs on
// the section's path, so it must neither block nor allocate. The adaptive
// controller installs one to hear of a capacity storm before its window
// closes. It may be installed while m serves.
func (m *Mutex) OnCapacity(fn func()) { m.onCapacity.Store(&fn) }

// capacity is every section's tm.CallOpts.OnCapacity: it calls the
// installed hook, so traffic that never overflows the HTM pays nothing.
func (m *Mutex) capacity() {
	if fn := m.onCapacity.Load(); fn != nil {
		(*fn)()
	}
}

// Do executes body as a critical section of m on thread th.
//
//   - On a pthread runtime: body runs under the real mutex with direct access.
//   - Otherwise: body runs as an atomic block (the lock is elided).
//
// body follows tm.Atomic's contract: return nil to commit/leave, return an
// error to roll back and propagate it, call Tx.Retry to roll back and make
// Do return tm.ErrRetry (predicate wait).
func (m *Mutex) Do(th *tm.Thread, body func(tx tm.Tx) error) error {
	if tr := m.r.tracer; tr != nil {
		tr.Acquire(th.ID(), m.mid)
		defer tr.Release(th.ID(), m.mid)
	}
	if m.r.policy == PolicyPthread {
		return m.doLocked(th, body)
	}
	return m.r.engine.AtomicOpts(th, tm.CallOpts{Resolve: m.resolveFn, Obs: m.obs, OnCapacity: m.capacityFn}, body)
}

// resolve maps the mutex's current policy onto a TM mechanism and whether
// the policy honors Tx.NoQuiesce. It runs under the engine's serial read
// lock, where SetPolicy's drain cannot overlap, so the answer is stable for
// the attempt that asked; every transactional policy has an answer.
func (m *Mutex) resolve() (tm.Mech, bool) {
	switch Policy(m.policy.Load()) {
	case PolicyHTMCondVar:
		return tm.MechHTM, false
	case PolicySTMCondVarNoQ:
		return tm.MechSTM, true
	default: // stm-spin, stm-cv
		return tm.MechSTM, false
	}
}

// doLocked is the pthread baseline path: body runs under m.mu with direct
// access.
func (m *Mutex) doLocked(th *tm.Thread, body func(tx tm.Tx) error) (err error) {
	m.mu.Lock()
	d := &directTx{e: m.r.engine, th: th}
	d.allocs = d.allocBuf[:0]
	var obs *stats.Stripe // nil records nothing
	if m.obs != nil {
		obs = m.obs.Stripe(th.ID())
	}
	retried := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.mu.Unlock()
				if sig := abortsig.From(r); sig != nil && sig.Cause == stats.Explicit {
					retried = true
					return
				}
				panic(r)
			}
			m.mu.Unlock()
		}()
		err = body(d)
	}()
	if retried {
		d.freeAllocs()
		obs.Abort(stats.Explicit)
		return tm.ErrRetry
	}
	if err != nil {
		if d.wrote {
			panic("tle: critical section failed after writes under pthread policy (no rollback available)")
		}
		d.freeAllocs()
		obs.Abort(stats.Explicit)
		return err
	}
	obs.Commit(!d.wrote)
	for _, fn := range d.deferred {
		fn()
	}
	return nil
}

// Await runs body under m until it stops requesting retry, waiting between
// attempts according to the policy: spin (PolicySTMSpin) or block on cv
// with the given timeout (all other policies). A non-positive timeout waits
// indefinitely. Any error other than tm.ErrRetry is returned to the caller.
func (m *Mutex) Await(th *tm.Thread, cv *condvar.Cond, timeout time.Duration, body func(tx tm.Tx) error) error {
	for {
		err := m.Do(th, body)
		if err != tm.ErrRetry {
			return err
		}
		if m.CurrentPolicy() == PolicySTMSpin || cv == nil {
			// Spin: re-execute the transaction. Yield so the thread that
			// will satisfy the predicate can run; the waste and cache
			// traffic this causes is the point of the Spin configuration.
			runtime.Gosched()
			continue
		}
		cv.Wait(timeout)
	}
}

// directTx is the pthread policy's Tx: direct access under a real lock.
// Its blocks come from and go back to th's block cache, as an elided
// section's do.
type directTx struct {
	e        *tm.Engine
	th       *tm.Thread
	wrote    bool
	deferred []func()
	rbuf     []uint64 // Tx.RangeBuf backing store
	// allocs lists the section's allocations, which a Retry or an error
	// return gives back as the elided paths do. It starts on allocBuf, so
	// recording the first four allocates nothing.
	allocs   []memseg.Addr
	allocBuf [4]memseg.Addr
}

var _ tm.Tx = (*directTx)(nil)

func (d *directTx) Load(a memseg.Addr) uint64 { return d.e.Memory().Load(a) }
func (d *directTx) Store(a memseg.Addr, v uint64) {
	d.wrote = true
	d.e.Memory().Store(a, v)
}
func (d *directTx) LoadRange(a memseg.Addr, dst []uint64) {
	for i := range dst {
		dst[i] = d.e.Memory().Load(a + memseg.Addr(i))
	}
}
func (d *directTx) StoreRange(a memseg.Addr, src []uint64) {
	d.wrote = true
	d.e.Memory().StoreRange(a, src) // the mutex is held: one bulk copy
}
func (d *directTx) RangeBuf(n int) []uint64 {
	if cap(d.rbuf) < n {
		d.rbuf = make([]uint64, n)
	}
	return d.rbuf[:n]
}
func (d *directTx) Alloc(n int) memseg.Addr {
	a := d.th.Alloc(n)
	d.allocs = append(d.allocs, a)
	return a
}

// freeAllocs returns the section's allocations after a retry or cancel.
func (d *directTx) freeAllocs() {
	for _, a := range d.allocs {
		d.th.Free(a)
	}
}
func (d *directTx) Free(a memseg.Addr) {
	d.deferred = append(d.deferred, func() { d.th.Free(a) })
}
func (d *directTx) NoQuiesce()        {}
func (d *directTx) Defer(fn func())   { d.deferred = append(d.deferred, fn) }
func (d *directTx) Irrevocable() bool { return true }
func (d *directTx) Retry() {
	if d.wrote {
		panic("tle: Retry after writes in a lock-based critical section")
	}
	abortsig.Throw(stats.Explicit)
}
