// Package lockcheck is a dynamic two-phase-locking checker.
//
// Section V of the paper found that x265's most important critical section
// "did not obey two-phase locking, and was incompatible with TLE", and poses
// as future work whether 2PL is a sufficient condition for safe naive
// transactionalization. This checker answers the *detection* half at
// runtime: it observes every critical-section entry and exit (via the
// tle.Config.Tracer hook) and flags executions where a thread acquires a
// lock after having released another lock while still holding some lock —
// the growing-phase/shrinking-phase rule of two-phase locking.
//
// A program whose trace is 2PL-clean has critical sections that nest like
// transactions and is a candidate for naive lock elision; a flagged program
// needs refactoring first (e.g. the ready-flag transformation of
// Listing 4, available as tmds.LinkedQueue).
//
// The checker also keeps the lock-order graph of the whole trace, every
// thread's: an edge a→b once some thread acquires b while holding a. An
// acquire that closes a cycle is an inversion. Under elision the nested
// sections flatten into one transaction, but every abort that falls back
// to the serial path or the pthread policy takes the real locks in both
// orders, and can deadlock.
package lockcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"gotle/internal/diagfmt"
)

// Violation records one two-phase-locking violation.
type Violation struct {
	// Thread is the violating thread's id.
	Thread uint64
	// Acquired is the mutex acquired during the shrinking phase.
	Acquired int
	// AcquiredSite is the file:line of the violating acquire — the
	// Mutex.Do (or direct Acquire) call that re-entered the growing
	// phase. Empty when no caller outside the TLE runtime was found.
	AcquiredSite string
	// Held lists the mutexes still held at the violating acquire.
	Held []int
	// HeldSites aligns with Held: the file:line where each still-held
	// lock was acquired, so a report names the source of both locks
	// involved in the violation.
	HeldSites []string
	// Released lists the mutexes already released in this episode.
	Released []int
}

func (v Violation) String() string {
	held := make([]string, len(v.Held))
	for i, m := range v.Held {
		site := "?"
		if i < len(v.HeldSites) && v.HeldSites[i] != "" {
			site = v.HeldSites[i]
		}
		held[i] = fmt.Sprintf("%d (acquired at %s)", m, site)
	}
	site := v.AcquiredSite
	if site == "" {
		site = "?"
	}
	return fmt.Sprintf("thread %d acquired lock %d at %s after releasing %v while holding %s",
		v.Thread, v.Acquired, site, v.Released, strings.Join(held, ", "))
}

// hold is one held lock: its recursive hold count and where it was first
// acquired.
type hold struct {
	count int
	site  string
}

// threadState tracks one thread's current lock episode. An episode starts
// when the thread goes from holding no locks to holding one, and ends when
// it holds none again.
type threadState struct {
	held     map[int]*hold
	released map[int]bool
}

// Checker accumulates acquire/release events. It implements tle.Tracer,
// and also tle.LockNamer (see identity.go), so a runtime configured with
// it reports each mutex's creation site and the checker names each lock
// by name and site.
type Checker struct {
	mu         sync.Mutex
	threads    map[uint64]*threadState
	locks      map[int]lockIdent
	violations []Violation
	errs       []string
	// order maps each lock to the locks acquired while holding it, with
	// the site of the first such acquire; inversions are the acquires
	// that closed a cycle in it, rendered.
	order      map[int]map[int]string
	inversions []inversion
}

// An inversion is one acquire that closed a cycle in the lock-order graph.
type inversion struct{ site, msg string }

// New returns an empty checker.
func New() *Checker {
	return &Checker{threads: make(map[uint64]*threadState), order: make(map[int]map[int]string)}
}

// Acquire records that thread tid entered the critical section of mutex mid.
func (c *Checker) Acquire(tid uint64, mid int) {
	site := callerSite()
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.threads[tid]
	if ts == nil {
		ts = &threadState{held: make(map[int]*hold), released: make(map[int]bool)}
		c.threads[tid] = ts
	}
	if len(ts.held) > 0 && len(ts.released) > 0 {
		v := Violation{Thread: tid, Acquired: mid, AcquiredSite: site}
		for m := range ts.held {
			v.Held = append(v.Held, m)
		}
		sort.Ints(v.Held)
		for _, m := range v.Held {
			v.HeldSites = append(v.HeldSites, ts.held[m].site)
		}
		for m := range ts.released {
			v.Released = append(v.Released, m)
		}
		sort.Ints(v.Released)
		c.violations = append(c.violations, v)
	}
	if h := ts.held[mid]; h != nil {
		h.count++
		return
	}
	for m, h := range ts.held {
		if _, ok := c.order[m][mid]; ok {
			continue
		}
		if c.order[m] == nil {
			c.order[m] = make(map[int]string)
		}
		c.order[m][mid] = site
		if back, ok := c.reaches(mid, m); ok {
			c.inversions = append(c.inversions, inversion{site, fmt.Sprintf(
				"thread %d acquired lock %s while holding %s (acquired at %s), but lock %s was taken before %s at %s: the two orders can deadlock",
				tid, c.lockKeyLocked(mid), c.lockKeyLocked(m), h.site, c.lockKeyLocked(mid), c.lockKeyLocked(m), back)})
		}
	}
	ts.held[mid] = &hold{count: 1, site: site}
}

// reaches reports whether the lock-order graph leads from lock a to lock
// b, and the site of the first edge of such a path.
func (c *Checker) reaches(a, b int) (string, bool) {
	for first, site := range c.order[a] {
		seen := map[int]bool{a: true}
		stack := []int{first}
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if m == b {
				return site, true
			}
			if seen[m] {
				continue
			}
			seen[m] = true
			for next := range c.order[m] {
				stack = append(stack, next)
			}
		}
	}
	return "", false
}

// callerSite walks up the stack past the checker and the TLE runtime to
// the frame that entered the critical section — for traces produced via
// tle.Config.Tracer, the caller of Mutex.Do/Await.
func callerSite() string {
	var pcs [24]uintptr
	n := runtime.Callers(2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" &&
			!strings.Contains(f.Function, "lockcheck.(*Checker)") &&
			!strings.Contains(f.Function, "lockcheck.callerSite") &&
			!strings.Contains(f.Function, "/internal/tle.") {
			return fmt.Sprintf("%s:%d", diagfmt.Rel(f.File), f.Line)
		}
		if !more {
			return ""
		}
	}
}

// Release records that thread tid left the critical section of mutex mid.
func (c *Checker) Release(tid uint64, mid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.threads[tid]
	if ts == nil || ts.held[mid] == nil {
		c.errs = append(c.errs, fmt.Sprintf("thread %d released lock %d it does not hold", tid, mid))
		return
	}
	ts.held[mid].count--
	if ts.held[mid].count > 0 {
		return // recursive exit: the lock is still held
	}
	delete(ts.held, mid)
	if len(ts.held) == 0 {
		// Episode over: a fresh episode may grow again.
		ts.released = make(map[int]bool)
		return
	}
	ts.released[mid] = true
}

// Violations returns the 2PL violations observed so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Errors returns protocol errors (release without acquire).
func (c *Checker) Errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.errs))
	copy(out, c.errs)
	return out
}

// Report renders all findings in the repo-wide "position: rule: message"
// diagnostic line format (package diagfmt) shared with cmd/tmvet, using
// the violating acquire's source position. Rules: "lockcheck/2pl" for
// two-phase-locking violations, "lockcheck/order" for lock-order
// inversions, "lockcheck/trace" for protocol errors.
func (c *Checker) Report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, v := range c.violations {
		out = append(out, diagfmt.Line(v.AcquiredSite, "lockcheck/2pl", v.String()))
	}
	for _, inv := range c.inversions {
		out = append(out, diagfmt.Line(inv.site, "lockcheck/order", inv.msg))
	}
	for _, e := range c.errs {
		out = append(out, diagfmt.Line("", "lockcheck/trace", e))
	}
	return out
}

// Clean reports whether the trace so far is two-phase-locking compliant
// and takes its locks in one order.
func (c *Checker) Clean() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0 && len(c.errs) == 0 && len(c.inversions) == 0
}
