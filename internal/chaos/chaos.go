// Package chaos is a deterministic fault-injection layer for the TM stack.
//
// The paper's correctness story rests on invariants that only hold across
// specific interleavings: encounter-time orec locking with undo on abort,
// commit-time quiescence, serial-irrevocable fallback, and the two-phase-
// locking discipline. Unit tests exercise one schedule at a time; this
// package lets a stress driver force the rare ones. Each TM layer consults a
// shared Injector at named fault points (forced validation aborts, HTM
// capacity/conflict aborts, delayed orec release, stalled epoch slots,
// forced serial-mode entry) and the Injector answers deterministically from
// a seed, so a failing run can be replayed by seed alone.
//
// Determinism model: every (thread, point) pair owns a call counter, and the
// decision for the n-th consultation is a pure hash of
// (seed, thread, point, n). The injector therefore never adds randomness of
// its own: replaying a seed replays every decision exactly as a function of
// how often each thread consulted each point. For a single-threaded
// reproduction — the form a minimized failing run takes — the consultation
// stream is itself deterministic, so the entire fault sequence replays
// bit-for-bit (the Fingerprint proves it). In contended multi-thread runs
// the scheduler can change how many retries (and hence consultations) a
// thread performs, so replay there is faithful per consultation rather than
// per wall-clock schedule.
//
// The Injector is nil-safe: every method on a nil *Injector is a cheap
// no-op, so the engine hot paths pay one inlined test when chaos is
// disabled (Fire and Stall call out only for an enabled point).
//
// Two kinds of points exist:
//
//   - fault points (STMValidate .. SerialEntry): legal behaviours of a
//     best-effort TM that the engine MUST tolerate. A correct engine passes
//     linearizability checking under any mix of these.
//   - sabotage points (SkipUndo): deliberately break an engine invariant.
//     They exist so a test can prove the checker has teeth — a harness that
//     never fails on a broken engine verifies nothing.
package chaos

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Point names one fault-injection site in the TM stack.
type Point int

const (
	// STMValidate forces an STM read-set validation failure at commit or
	// snapshot extension (the attempt aborts with cause Validation).
	STMValidate Point = iota
	// STMLockStall delays orec release at STM commit and rollback, widening
	// the window in which other transactions observe locked orecs.
	STMLockStall
	// HTMCapacity forces a hardware capacity abort on a transactional store.
	HTMCapacity
	// HTMConflict forces a hardware conflict abort on a transactional load.
	HTMConflict
	// EpochStall delays a thread's epoch-slot exit, keeping the slot active
	// after its transaction finished — quiescing committers must wait it out.
	EpochStall
	// SerialEntry forces an atomic block straight into serial-irrevocable
	// mode, as if its retry budget were already exhausted.
	SerialEntry
	// SkipUndo is SABOTAGE: the STM rollback drops its undo log, leaving
	// aborted write-through state in memory. Only for checker-teeth tests.
	SkipUndo
	numPoints
)

// NumPoints is the number of distinct injection points.
const NumPoints = int(numPoints)

func (p Point) String() string {
	switch p {
	case STMValidate:
		return "stm-validate"
	case STMLockStall:
		return "stm-lock-stall"
	case HTMCapacity:
		return "htm-capacity"
	case HTMConflict:
		return "htm-conflict"
	case EpochStall:
		return "epoch-stall"
	case SerialEntry:
		return "serial-entry"
	case SkipUndo:
		return "skip-undo"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// Rates maps a point to its firing probability in parts per million.
type Rates map[Point]int

// Config parameterises an Injector.
type Config struct {
	// Seed drives every decision. Two Injectors with equal Seed, Rates and
	// workload produce identical per-thread fault sequences.
	Seed int64
	// Rates gives each point's firing probability (×1e-6). Absent points
	// never fire.
	Rates Rates
	// StallIters is the number of scheduler yields a stall point performs
	// when it fires (default 16). Yields rather than timers keep stall
	// lengths scheduler-relative and runs reproducible.
	StallIters int
	// TraceCap bounds the retained event trace (default 1024 events).
	TraceCap int
}

// streamSlots bounds the per-thread decision streams. Thread ids map onto
// streams by modulo; the engine allocates small dense ids, so collisions only
// appear past 256 concurrent threads (they would still be deterministic,
// merely sharing a stream).
const streamSlots = 256

// Event is one fired fault, for diagnostics.
type Event struct {
	TID   uint64 // thread id that consulted the injector
	Point Point
	Seq   uint64 // per-(thread,point) consultation number
}

func (e Event) String() string {
	return fmt.Sprintf("t%d/%s#%d", e.TID, e.Point, e.Seq)
}

// Injector answers fault-point consultations deterministically from a seed.
// All methods are safe for concurrent use and safe on a nil receiver.
type Injector struct {
	seed       int64
	rates      [numPoints]uint32
	stallIters int
	traceCap   int

	//gotle:allow falseshare test-only fault-injection counters; never on a measured path
	calls [numPoints]atomic.Uint64
	//gotle:allow falseshare test-only fault-injection counters; never on a measured path
	fired [numPoints]atomic.Uint64
	// fingerprint accumulates the hash of every fired event. Addition is
	// commutative, so the value is schedule-independent for deterministic
	// per-thread workloads.
	fingerprint atomic.Uint64

	//gotle:allow falseshare test-only fault-injection counters; never on a measured path
	streams [streamSlots][numPoints]atomic.Uint64

	trace struct {
		sync.Mutex
		ev []Event
	}
}

// New constructs an Injector.
func New(cfg Config) *Injector {
	in := &Injector{
		seed:       cfg.Seed,
		stallIters: cfg.StallIters,
		traceCap:   cfg.TraceCap,
	}
	if in.stallIters <= 0 {
		in.stallIters = 16
	}
	if in.traceCap <= 0 {
		in.traceCap = 1024
	}
	for p, r := range cfg.Rates {
		if p < 0 || p >= Point(numPoints) {
			panic(fmt.Sprintf("chaos: unknown point %d", int(p)))
		}
		if r < 0 {
			r = 0
		}
		if r > 1_000_000 {
			r = 1_000_000
		}
		in.rates[p] = uint32(r)
	}
	return in
}

// Seed returns the seed the injector was built with (0 for nil).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// splitmix64 is the standard splitmix64 finalizer: a cheap, well-mixed
// 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// decide hashes one consultation into a firing decision.
func (in *Injector) decide(tid uint64, p Point, seq uint64) (uint64, bool) {
	h := splitmix64(uint64(in.seed) ^ tid*0x9E3779B97F4A7C15 ^ uint64(p)*0xC2B2AE3D27D4EB4F ^ seq*0x165667B19E3779F9)
	return h, uint32(h%1_000_000) < in.rates[p]
}

// Fire consults point p for thread tid and reports whether the fault fires.
// A nil Injector, or a point with no configured rate, never fires.
func (in *Injector) Fire(tid uint64, p Point) bool {
	return in != nil && in.rates[p] != 0 && in.fire(tid, p)
}

// fire is Fire's consultation of an enabled point.
func (in *Injector) fire(tid uint64, p Point) bool {
	seq := in.streams[tid%streamSlots][p].Add(1)
	in.calls[p].Add(1)
	h, fire := in.decide(tid, p, seq)
	if !fire {
		return false
	}
	in.fired[p].Add(1)
	in.fingerprint.Add(h | 1)
	in.trace.Lock()
	if len(in.trace.ev) < in.traceCap {
		in.trace.ev = append(in.trace.ev, Event{TID: tid, Point: p, Seq: seq})
	}
	in.trace.Unlock()
	return true
}

// Stall consults point p and, when it fires, yields the scheduler
// StallIters times. Call sites place it where holding a resource longer
// (a locked orec, an active epoch slot) stresses waiters.
func (in *Injector) Stall(tid uint64, p Point) {
	if in != nil && in.rates[p] != 0 {
		in.stall(tid, p)
	}
}

// stall is Stall's consultation of an enabled point.
func (in *Injector) stall(tid uint64, p Point) {
	if !in.fire(tid, p) {
		return
	}
	for i := 0; i < in.stallIters; i++ {
		runtime.Gosched()
	}
}

// Fired reports how many times point p has fired.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[p].Load()
}

// Calls reports how many times point p has been consulted.
func (in *Injector) Calls(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.calls[p].Load()
}

// TotalFired sums fired counts over all points.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for p := 0; p < NumPoints; p++ {
		n += in.fired[p].Load()
	}
	return n
}

// Fingerprint returns a schedule-independent digest of every fired event.
// Two runs of the same seeded workload must produce equal fingerprints;
// the seed-replay test asserts exactly that.
func (in *Injector) Fingerprint() uint64 {
	if in == nil {
		return 0
	}
	return in.fingerprint.Load()
}

// Trace returns the retained fired events sorted by (thread, point, seq) —
// a stable order even though threads append concurrently.
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	in.trace.Lock()
	out := make([]Event, len(in.trace.ev))
	copy(out, in.trace.ev)
	in.trace.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// String renders seed, fingerprint and non-zero fired counts on one line.
func (in *Injector) String() string {
	if in == nil {
		return "chaos: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d fingerprint=%#x", in.seed, in.Fingerprint())
	for p := 0; p < NumPoints; p++ {
		if n := in.fired[p].Load(); n > 0 {
			fmt.Fprintf(&b, " %s=%d", Point(p), n)
		}
	}
	return b.String()
}
