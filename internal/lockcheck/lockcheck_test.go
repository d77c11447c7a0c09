package lockcheck

import (
	"gotle/internal/tle"
	"gotle/internal/tm"

	"strings"
	"sync"
	"testing"
)

func TestWellNestedIsClean(t *testing.T) {
	c := New()
	// lock A; lock B; unlock B; unlock A — classic 2PL-compatible nesting.
	c.Acquire(1, 1)
	c.Acquire(1, 2)
	c.Release(1, 2)
	c.Release(1, 1)
	if !c.Clean() {
		t.Fatalf("violations: %v errs: %v", c.Violations(), c.Errors())
	}
}

// Nestings that take the same locks in opposite orders are each 2PL-clean,
// but together they can deadlock: the checker reports the acquire that
// closes the cycle, over two locks or more, and nothing for one order.
func TestLockOrderInversionFlagged(t *testing.T) {
	nest := func(c *Checker, tid uint64, outer, inner int) {
		c.Acquire(tid, outer)
		c.Acquire(tid, inner)
		c.Release(tid, inner)
		c.Release(tid, outer)
	}
	for _, tc := range []struct {
		name  string
		pairs [][2]int
		bad   bool
	}{
		{"one order", [][2]int{{1, 2}, {1, 2}, {2, 3}, {1, 3}}, false},
		{"two locks", [][2]int{{1, 2}, {2, 1}}, true},
		{"three locks", [][2]int{{1, 2}, {2, 3}, {3, 1}}, true},
	} {
		c := New()
		for i, p := range tc.pairs {
			nest(c, uint64(i+1), p[0], p[1])
		}
		rep := c.Report()
		if tc.bad != !c.Clean() || len(c.Violations()) != 0 {
			t.Fatalf("%s: clean=%v, 2PL violations %v, report %v", tc.name, c.Clean(), c.Violations(), rep)
		}
		if tc.bad && (len(rep) != 1 || !strings.Contains(rep[0], ": lockcheck/order: ")) {
			t.Fatalf("%s: Report() = %v, want one lockcheck/order line", tc.name, rep)
		}
	}
}

func TestSequentialEpisodesAreClean(t *testing.T) {
	c := New()
	for i := 0; i < 5; i++ {
		c.Acquire(1, 1)
		c.Release(1, 1)
		c.Acquire(1, 2)
		c.Release(1, 2)
	}
	if !c.Clean() {
		t.Fatalf("sequential critical sections flagged: %v", c.Violations())
	}
}

// The Listing-3 pattern: hold the queue lock, and inside it repeatedly
// acquire/release smaller locks — the second small acquire violates 2PL.
func TestListing3PatternFlagged(t *testing.T) {
	c := New()
	c.Acquire(1, 10) // out_queue.lock()
	c.Acquire(1, 20) // small critical section 1
	c.Release(1, 20)
	c.Acquire(1, 21) // acquire after release while holding 10: violation
	c.Release(1, 21)
	c.Release(1, 10)
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
	v := vs[0]
	if v.Acquired != 21 || len(v.Held) != 1 || v.Held[0] != 10 || len(v.Released) != 1 || v.Released[0] != 20 {
		t.Fatalf("violation detail = %+v", v)
	}
	if !strings.Contains(v.String(), "acquired lock 21") {
		t.Fatalf("String() = %q", v.String())
	}
}

// The Listing-4 refactoring: each small critical section stands alone.
func TestListing4PatternClean(t *testing.T) {
	c := New()
	c.Acquire(1, 10) // enqueue not-ready node
	c.Release(1, 10)
	c.Acquire(1, 20) // produce-stage communication
	c.Release(1, 20)
	c.Acquire(1, 10) // mark ready
	c.Release(1, 10)
	if !c.Clean() {
		t.Fatalf("ready-flag pattern flagged: %v", c.Violations())
	}
}

func TestRecursiveHoldCounts(t *testing.T) {
	c := New()
	c.Acquire(1, 1)
	c.Acquire(1, 1) // recursive
	c.Release(1, 1)
	// Still held once; acquiring another lock is growing phase, fine.
	c.Acquire(1, 2)
	c.Release(1, 2)
	c.Release(1, 1)
	if !c.Clean() {
		t.Fatalf("recursive hold misdetected: %v", c.Violations())
	}
}

func TestReleaseUnheldIsError(t *testing.T) {
	c := New()
	c.Release(1, 5)
	if c.Clean() || len(c.Errors()) != 1 {
		t.Fatalf("errors = %v", c.Errors())
	}
}

func TestThreadsIndependent(t *testing.T) {
	c := New()
	c.Acquire(1, 1)
	c.Acquire(2, 2) // other thread's acquire is not "while holding 1"
	c.Release(2, 2)
	c.Release(1, 1)
	if !c.Clean() {
		t.Fatalf("cross-thread state leaked: %v", c.Violations())
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Acquire(tid, int(tid))
				c.Release(tid, int(tid))
			}
		}(uint64(i))
	}
	wg.Wait()
	if !c.Clean() {
		t.Fatalf("clean concurrent trace flagged: %v %v", c.Violations(), c.Errors())
	}
}

// TestViolationSitesPointAtCallers drives the checker through the real
// tle.Config.Tracer hook and checks that a violation names the acquire
// site of both locks involved — where the still-held lock was taken and
// where the violating acquire happened — as file:line positions in the
// caller, not inside the TLE runtime.
func TestViolationSitesPointAtCallers(t *testing.T) {
	c := New()
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 12, Tracer: c})
	th := r.NewThread()
	defer th.Release()
	outer := r.NewMutex("outer")
	inner1 := r.NewMutex("inner1")
	inner2 := r.NewMutex("inner2")

	err := outer.Do(th, func(tm.Tx) error {
		if err := inner1.Do(th, func(tm.Tx) error { return nil }); err != nil {
			return err
		}
		// Acquire-after-release while still holding outer: 2PL violation.
		return inner2.Do(th, func(tm.Tx) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}

	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly 1", vs)
	}
	v := vs[0]
	if !strings.Contains(v.AcquiredSite, "lockcheck_test.go:") {
		t.Fatalf("AcquiredSite = %q, want a position in this test", v.AcquiredSite)
	}
	if len(v.HeldSites) != 1 || !strings.Contains(v.HeldSites[0], "lockcheck_test.go:") {
		t.Fatalf("HeldSites = %q, want the outer.Do position in this test", v.HeldSites)
	}
	if v.AcquiredSite == v.HeldSites[0] {
		t.Fatalf("acquire site %q should differ from held site %q", v.AcquiredSite, v.HeldSites[0])
	}
	for _, site := range append([]string{v.AcquiredSite}, v.HeldSites...) {
		if strings.Contains(site, "tle.go") {
			t.Fatalf("site %q points inside the TLE runtime", site)
		}
	}
	if s := v.String(); !strings.Contains(s, v.AcquiredSite) || !strings.Contains(s, v.HeldSites[0]) {
		t.Fatalf("String() = %q, want both acquire sites included", s)
	}

	rep := c.Report()
	if len(rep) != 1 {
		t.Fatalf("Report() = %v, want exactly 1 line", rep)
	}
	if want := v.AcquiredSite + ": lockcheck/2pl: "; !strings.HasPrefix(rep[0], want) {
		t.Fatalf("Report()[0] = %q, want prefix %q", rep[0], want)
	}
}

// TestReportFormatWithoutSite covers the "-" position fallback for trace
// protocol errors, which have no acquire site.
func TestReportFormatWithoutSite(t *testing.T) {
	c := New()
	c.Release(7, 3) // release without acquire
	rep := c.Report()
	if len(rep) != 1 || !strings.HasPrefix(rep[0], "-: lockcheck/trace: ") {
		t.Fatalf("Report() = %v, want one '-: lockcheck/trace:' line", rep)
	}
}
