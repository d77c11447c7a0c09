package lockcheck

import (
	"fmt"
	"runtime"
	"testing"

	"gotle/internal/diagfmt"
	"gotle/internal/tle"
)

// TestLockKeyRoundTrip drives the real runtime hook end to end: NewMutex
// on a runtime whose tracer implements tle.LockNamer must record exactly
// the "name@file:line" identity of the NewMutex call's source position.
func TestLockKeyRoundTrip(t *testing.T) {
	c := New()
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 10, Tracer: c})
	_, file, line, ok := runtime.Caller(0)
	mu := r.NewMutex("roundtrip") // must stay on the line after the Caller call
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	if mu == nil {
		t.Fatal("NewMutex returned nil")
	}
	want := fmt.Sprintf("roundtrip@%s:%d", diagfmt.Rel(file), line+1)
	keys := c.LockKeys()
	if len(keys) != 1 {
		t.Fatalf("LockKeys = %v, want exactly one entry", keys)
	}
	for mid, got := range keys {
		if got != want {
			t.Errorf("LockKeys[%d] = %q, want %q", mid, got, want)
		}
		if got := c.LockKey(mid); got != want {
			t.Errorf("LockKey(%d) = %q, want %q", mid, got, want)
		}
	}
}

// Without a LockCreated report the key degrades to the numeric id, and a
// report without a site to the bare name.
func TestLockKeyDegraded(t *testing.T) {
	c := New()
	if got := c.LockKey(7); got != "lock#7" {
		t.Errorf("unreported lock: LockKey(7) = %q, want %q", got, "lock#7")
	}
	c.locks = map[int]lockIdent{3: {name: "bare"}}
	if got := c.LockKey(3); got != "bare" {
		t.Errorf("site-less lock: LockKey(3) = %q, want %q", got, "bare")
	}
}
