package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotMergesThreads(t *testing.T) {
	r := NewCounters()
	a := r.Stripe(1)
	b := r.Stripe(2)
	a.Commit(false)
	b.Abort(Conflict)
	b.Commit(true)
	s := r.Snapshot()
	if s.Starts != 3 || s.Commits != 2 || s.ReadOnly != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Aborts[Conflict] != 1 || s.TotalAborts() != 1 {
		t.Fatalf("aborts = %v", s.Aborts)
	}
}

func TestAbortRate(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	for i := 0; i < 6; i++ {
		th.Commit(false)
	}
	th.Abort(Capacity)
	th.Abort(Event)
	s := r.Snapshot()
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("AbortRate = %v, want 0.25", got)
	}
}

func TestAbortRateExcludesExplicitRetries(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	for i := 0; i < 7; i++ {
		th.Commit(false)
	}
	th.Abort(Explicit)
	th.Abort(Explicit)
	th.Abort(Conflict)
	s := r.Snapshot()
	if got := s.ConflictAborts(); got != 1 {
		t.Fatalf("ConflictAborts = %d, want 1", got)
	}
	if got := s.AbortRate(); got != 0.1 {
		t.Fatalf("AbortRate = %v, want 0.1 (explicit retries must not count)", got)
	}
}

func TestAbortRateEmpty(t *testing.T) {
	var s Snapshot
	if s.AbortRate() != 0 || s.SerialRate() != 0 {
		t.Fatal("rates on empty snapshot must be 0")
	}
}

func TestSerialRate(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	for i := 0; i < 10; i++ {
		th.Commit(false)
	}
	th.SerialRun()
	s := r.Snapshot()
	if got := s.SerialRate(); got != 0.1 {
		t.Fatalf("SerialRate = %v, want 0.1", got)
	}
}

func TestQuiesceAccounting(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.Quiesce(3 * time.Millisecond)
	th.Quiesce(0)
	th.NoQuiesce()
	s := r.Snapshot()
	if s.Quiesces != 2 || s.QuiesceTime != 3*time.Millisecond || s.NoQuiesce != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestSharedGraceAndDedupAccounting(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.SharedGrace()
	th.SharedGrace()
	th.ReadsDeduped(5)
	th.ReadsDeduped(0) // no-op
	s := r.Snapshot()
	if s.SharedGrace != 2 || s.ReadsDeduped != 5 {
		t.Fatalf("snapshot = %+v", s)
	}
	out := s.String()
	if !strings.Contains(out, "sharedGrace=2") || !strings.Contains(out, "readsDeduped=5") {
		t.Fatalf("String() = %q, missing new counters", out)
	}
	diff := s.Sub(Snapshot{SharedGrace: 1, ReadsDeduped: 2})
	if diff.SharedGrace != 1 || diff.ReadsDeduped != 3 {
		t.Fatalf("diff = %+v", diff)
	}
	r.Reset()
	if s := r.Snapshot(); s.SharedGrace != 0 || s.ReadsDeduped != 0 {
		t.Fatalf("snapshot after Reset = %+v", s)
	}
}

func TestReset(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.Abort(Locked)
	r.Reset()
	s := r.Snapshot()
	if s.Starts != 0 || s.TotalAborts() != 0 {
		t.Fatalf("snapshot after Reset = %+v", s)
	}
}

func TestSub(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.Commit(false)
	before := r.Snapshot()
	th.Abort(Validation)
	diff := r.Snapshot().Sub(before)
	if diff.Starts != 1 || diff.Commits != 0 || diff.Aborts[Validation] != 1 {
		t.Fatalf("diff = %+v", diff)
	}
}

func TestAbortCauseStrings(t *testing.T) {
	for c := Conflict; c < AbortCause(NumCauses); c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "cause(") {
			t.Errorf("cause %d has no name", c)
		}
	}
	if AbortCause(99).String() != "cause(99)" {
		t.Error("unknown cause formatting broken")
	}
}

func TestAbortOutOfRangeClamped(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.Abort(AbortCause(-5))
	th.Abort(AbortCause(100))
	if got := r.Snapshot().Aborts[Conflict]; got != 2 {
		t.Fatalf("clamped aborts = %d, want 2", got)
	}
}

func TestStringMentionsTopCause(t *testing.T) {
	r := NewCounters()
	th := r.Stripe(1)
	th.Abort(Capacity)
	out := r.Snapshot().String()
	if !strings.Contains(out, "capacity=1") {
		t.Fatalf("String() = %q, missing cause breakdown", out)
	}
}

func TestConcurrentCounting(t *testing.T) {
	r := NewCounters()
	const threads, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := r.Stripe(uint64(i + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				th.Commit(j%2 == 0)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Starts != threads*per || s.Commits != threads*per {
		t.Fatalf("lost updates: %+v", s)
	}
}
