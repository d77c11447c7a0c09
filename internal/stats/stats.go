// Package stats collects transaction-execution statistics.
//
// The paper's evaluation leans on these numbers: Figure 4 plots HTM abort
// rates, Section VII.A reports transaction counts, STM abort percentages and
// HTM serial-fallback percentages for PBZip2, and Section VII.C interprets
// quiescence as implicit congestion control. Every counter in the tree is a
// Striped, so that measurement does not itself create the contention being
// measured; Counters is the transaction-event set built on it.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gotle/internal/relstore"
)

// AbortCause classifies why a transaction attempt failed.
type AbortCause int

// Abort causes. Conflict and Capacity mirror best-effort HTM's abort codes;
// Explicit is user retry (condition waits); Event models interrupts and other
// transient aborts; Validation is STM timestamp validation failure; Locked an
// encounter-time lock conflict; Serial another transaction going irrevocable.
const (
	Conflict AbortCause = iota
	Capacity
	Explicit
	Event
	Validation
	Locked
	Serial
	numCauses
)

// NumCauses is the number of abort causes.
const NumCauses = int(numCauses)

var causeNames = [numCauses]string{"conflict", "capacity", "explicit", "event", "validation", "locked", "serial"}

func (c AbortCause) String() string {
	if c < 0 || c >= numCauses {
		return fmt.Sprintf("cause(%d)", int(c))
	}
	return causeNames[c]
}

// Stripes is a Striped's stripe count, and the number of thread ids that own
// a stripe of a Counters: htm.MaxThreads, a hybrid engine's live-thread limit.
const Stripes = 64

const lineWords = 8 // counters per cache line

type line [lineWords]atomic.Uint64

// Striped is n counters kept Stripes times over, each stripe on cache lines
// of its own: a writer adds to the stripe its thread id selects, a reader sums
// them all. Thread ids are small, dense and recycled (tm.Engine.NewThread),
// so up to Stripes live threads write no line another thread writes. It is
// the one counter layout in the tree: the engine's and each observed mutex's
// Counters, kvstore's hit/miss counters and the server's per-op counters.
//
// Add is an atomic add on stripe id % Stripes, so sums are exact whatever
// ids share a stripe. A Counters has one stripe more and two kinds of them:
// ids below Stripes own theirs, and since ids are unique among live threads
// their adds are a load and a release store (relstore), no locked
// instruction; every larger id shares the last, the overflow stripe, whose
// adds stay atomic. A reader's sum is exact either way, up to the adds in
// flight.
type Striped struct {
	per   int    // lines per stripe
	lines []line // per lines per stripe, stripe-major; 64-byte elements, so line-aligned
}

// NewStriped returns n zeroed counters, a stripe rounded up to whole lines.
func NewStriped(n int) *Striped { return newStriped(n, Stripes) }

func newStriped(n, stripes int) *Striped {
	per := (n + lineWords - 1) / lineWords
	return &Striped{per: per, lines: make([]line, stripes*per)}
}

// Add adds d to counter i of the stripe that stripe (a thread id) selects.
func (s *Striped) Add(stripe uint64, i int, d uint64) {
	s.lines[int(stripe%Stripes)*s.per+i/lineWords][i%lineWords].Add(d)
}

// Sum reads counter i over all stripes.
func (s *Striped) Sum(i int) uint64 {
	var n uint64
	for st := 0; st < len(s.lines)/s.per; st++ {
		n += s.lines[st*s.per+i/lineWords][i%lineWords].Load()
	}
	return n
}

// Reset zeroes every counter (between benchmark trials). An owned stripe's
// add that runs across it may write back the count from before it.
func (s *Striped) Reset() {
	for l := range s.lines {
		for w := range s.lines[l] {
			s.lines[l][w].Store(0)
		}
	}
}

// event indexes a Counters' Striped; evAborts+cause is that cause's count.
type event int

const (
	evAbandoned  event = iota // attempts unwound by a non-abort panic (see AbandonedStart)
	evWriting                 // committed transactions that wrote
	evReadOnly                // committed read-only transactions
	evSerialRuns              // attempts executed under the serial lock
	evQuiesces
	evQuiesceNanos
	evNoQuiesce    // commits that skipped quiescence via NoQuiesce
	evSharedGrace  // quiesces covered by another's grace period (see SharedGrace)
	evScansAvoided // shared-grace hits that skipped the slot scan entirely
	evReadsDeduped // duplicate read-set entries suppressed by dedup
	evParked       // freed blocks parked for deferred reclamation
	evReclaimed    // parked blocks returned to the allocator
	evAborts       // first of numCauses
	numEvents      = evAborts + event(numCauses)
)

// Counters is one set of transaction counters: a TM engine has one for all it
// runs, and every observed tle.Mutex (tle.Config.Observe) one for the sections
// run under it. A thread records through the Stripe its id selects: its own
// below Stripes, the shared overflow stripe above (see Striped).
type Counters struct {
	s       *Striped
	stripes [Stripes + 1]Stripe
}

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters {
	c := &Counters{s: newStriped(int(numEvents), Stripes+1)}
	for i := range c.stripes {
		c.stripes[i] = Stripe{lines: c.s.lines[i*c.s.per : (i+1)*c.s.per], shared: i == Stripes}
	}
	return c
}

// Stripe returns the handle thread id records through. The caller's id
// must be unique among the threads recording into c while it does: ids
// below Stripes own their stripe.
func (c *Counters) Stripe(id uint64) *Stripe { return &c.stripes[min(id, Stripes)] }

// Stripe is a handle to one stripe of a Counters. A nil *Stripe records
// nothing, so a caller with an optional second sink needs no test of its own;
// neither does one whose count is usually zero.
type Stripe struct {
	lines  []line // the stripe's lines of the Counters' Striped
	shared bool   // the overflow stripe: adds are atomic
}

func (t *Stripe) add(e event, d uint64) {
	if t != nil && d != 0 {
		w := &t.lines[e/lineWords][e%lineWords]
		if t.shared {
			w.Add(d)
			return
		}
		relstore.Store64(w, w.Load()+d)
	}
}

// AbandonedStart records an attempt unwound by a non-abort panic, which
// reaches neither Commit nor Abort. Every other attempt ends in exactly one
// of those two, so the hot path counts no starts: Snapshot derives them.
func (t *Stripe) AbandonedStart() { t.add(evAbandoned, 1) }

// Commit records a commit, read-only or writing, with one add.
func (t *Stripe) Commit(readOnly bool) {
	e := evWriting
	if readOnly {
		e = evReadOnly
	}
	t.add(e, 1)
}

// Abort records a failed attempt with its cause.
func (t *Stripe) Abort(cause AbortCause) {
	if cause < 0 || cause >= numCauses {
		cause = Conflict
	}
	t.add(evAborts+event(cause), 1)
}

// SerialRun records an attempt executed under the serial-irrevocable lock.
func (t *Stripe) SerialRun() { t.add(evSerialRuns, 1) }

// Quiesce records one post-commit quiescence wait and its duration.
func (t *Stripe) Quiesce(d time.Duration) {
	t.add(evQuiesces, 1)
	t.add(evQuiesceNanos, uint64(max(d, 0)))
}

// NoQuiesce records a commit that skipped quiescence through Tx.NoQuiesce.
func (t *Stripe) NoQuiesce() { t.add(evNoQuiesce, 1) }

// SharedGrace records a quiescence satisfied by a concurrent quiescer's grace
// period, or frees that joined a parked batch waiting out its own;
// scanAvoided marks the paths that touched no epoch slot.
func (t *Stripe) SharedGrace(scanAvoided bool) {
	t.add(evSharedGrace, 1)
	if scanAvoided {
		t.add(evScansAvoided, 1)
	}
}

// ReadsDeduped records n duplicate read-set entries the STM suppressed.
func (t *Stripe) ReadsDeduped(n uint64) { t.add(evReadsDeduped, n) }

// Parked records n freed blocks parked to wait out a grace period (deferred
// reclamation).
func (t *Stripe) Parked(n uint64) { t.add(evParked, n) }

// Reclaimed records n parked blocks returned to the allocator.
func (t *Stripe) Reclaimed(n uint64) { t.add(evReclaimed, n) }

// Snapshot is a merged, immutable view of all counters.
type Snapshot struct {
	Starts      uint64
	Commits     uint64
	ReadOnly    uint64
	SerialRuns  uint64
	Quiesces    uint64
	QuiesceTime time.Duration
	NoQuiesce   uint64
	// SharedGrace counts quiesces covered by another's grace period (a
	// concurrent quiescer's, or a parked batch's), ScansAvoided the subset
	// that skipped the epoch-slot scan.
	SharedGrace  uint64
	ScansAvoided uint64
	ReadsDeduped uint64
	// Parked counts freed blocks parked for deferred reclamation, Reclaimed
	// those since returned to the allocator (see ReclaimParked).
	Parked    uint64
	Reclaimed uint64
	Aborts    [NumCauses]uint64
}

// Snapshot sums every stripe. Starts and Commits are derived: every attempt
// ends in exactly one commit, abort or abandonment, and every commit is
// read-only or writing, so the hot path counts neither.
func (c *Counters) Snapshot() Snapshot {
	sum := func(e event) uint64 { return c.s.Sum(int(e)) }
	s := Snapshot{
		// A block's thread counts it parked before reclaimed, so summing
		// Reclaimed first keeps Parked >= Reclaimed in every snapshot.
		Reclaimed:    sum(evReclaimed),
		ReadOnly:     sum(evReadOnly),
		SerialRuns:   sum(evSerialRuns),
		Quiesces:     sum(evQuiesces),
		QuiesceTime:  time.Duration(sum(evQuiesceNanos)),
		NoQuiesce:    sum(evNoQuiesce),
		SharedGrace:  sum(evSharedGrace),
		ScansAvoided: sum(evScansAvoided),
		ReadsDeduped: sum(evReadsDeduped),
		Parked:       sum(evParked),
	}
	s.Commits = s.ReadOnly + sum(evWriting)
	for i := range s.Aborts {
		s.Aborts[i] = sum(evAborts + event(i))
	}
	s.Starts = sum(evAbandoned) + s.Commits + s.TotalAborts()
	return s
}

// Reset zeroes all counters.
func (c *Counters) Reset() { c.s.Reset() }

// ReclaimParked is the number of freed blocks waiting out a grace period
// when the snapshot was taken.
func (s Snapshot) ReclaimParked() uint64 { return s.Parked - s.Reclaimed }

// TotalAborts sums aborts over all causes.
func (s Snapshot) TotalAborts() uint64 {
	var n uint64
	for _, a := range s.Aborts {
		n += a
	}
	return n
}

// ConflictAborts excludes Explicit (condition-wait retries), as the paper's
// abort rates do: a transaction whose predicate is false is waiting, not failing.
func (s Snapshot) ConflictAborts() uint64 {
	return s.TotalAborts() - s.Aborts[Explicit]
}

// AbortRate is ConflictAborts / starts, in [0,1]; zero when nothing started.
func (s Snapshot) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.ConflictAborts()) / float64(s.Starts)
}

// SerialRate is serial runs / commits, the paper's "fell back to serial mode"
// percentage (adaptive.Sample.Serial is the other one, over starts).
func (s Snapshot) SerialRate() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.SerialRuns) / float64(s.Commits)
}

// Sub returns the component-wise difference s - prev, for interval reporting.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Starts:       s.Starts - prev.Starts,
		Commits:      s.Commits - prev.Commits,
		ReadOnly:     s.ReadOnly - prev.ReadOnly,
		SerialRuns:   s.SerialRuns - prev.SerialRuns,
		Quiesces:     s.Quiesces - prev.Quiesces,
		QuiesceTime:  s.QuiesceTime - prev.QuiesceTime,
		NoQuiesce:    s.NoQuiesce - prev.NoQuiesce,
		SharedGrace:  s.SharedGrace - prev.SharedGrace,
		ScansAvoided: s.ScansAvoided - prev.ScansAvoided,
		ReadsDeduped: s.ReadsDeduped - prev.ReadsDeduped,
		Parked:       s.Parked - prev.Parked,
		Reclaimed:    s.Reclaimed - prev.Reclaimed,
	}
	for i := range d.Aborts {
		d.Aborts[i] = s.Aborts[i] - prev.Aborts[i]
	}
	return d
}

// String renders a compact single-line report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "starts=%d commits=%d aborts=%d (%.2f%%) serial=%d (%.2f%%) quiesces=%d quiesceTime=%v",
		s.Starts, s.Commits, s.TotalAborts(), 100*s.AbortRate(),
		s.SerialRuns, 100*s.SerialRate(), s.Quiesces, s.QuiesceTime)
	if s.SharedGrace > 0 {
		fmt.Fprintf(&b, " sharedGrace=%d scansAvoided=%d", s.SharedGrace, s.ScansAvoided)
	}
	if s.ReadsDeduped > 0 {
		fmt.Fprintf(&b, " readsDeduped=%d", s.ReadsDeduped)
	}
	var causes []AbortCause
	for i, a := range s.Aborts {
		if a > 0 {
			causes = append(causes, AbortCause(i))
		}
	}
	sort.Slice(causes, func(i, j int) bool { return s.Aborts[causes[i]] > s.Aborts[causes[j]] })
	for _, c := range causes {
		fmt.Fprintf(&b, " %s=%d", c, s.Aborts[c])
	}
	return b.String()
}
