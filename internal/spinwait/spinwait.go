// Package spinwait provides bounded exponential-backoff spinning for
// lock-free and transactional retry loops.
//
// The TM engine spends most of its waiting time in three places: acquiring
// ownership records, waiting for the serial lock, and quiescing behind
// concurrent transactions. All three want the same shape of wait: spin a few
// iterations in-core, then progressively yield to the scheduler so that the
// goroutine holding the resource can run. Backoff keeps that policy in one
// place and makes it tunable for tests.
package spinwait

import (
	"runtime"
	"time"
)

// Backoff is a restartable exponential backoff. The zero value is ready to
// use. It is not safe for concurrent use; each goroutine owns its own.
type Backoff struct {
	step uint
	// spin holds the busy-loop accumulator; keeping it in the struct (owned
	// by a single goroutine) defeats dead-code elimination without sharing.
	spin uint64
}

// Limits for the backoff schedule. With spinLimit=6 the spinner executes
// 1,2,4,...,32 busy iterations before the first yield, and never asks for a
// sleep longer than maxSleep per Wait call. What it gets depends on the
// process, not on what it asked for: on the 2-vCPU Linux box the numbers in
// EXPERIMENTS.md come from, time.Sleep(1µs) and time.Sleep(100µs) both
// return after about 1.08 ms with a busy peer when the network poller is
// idle (tm-sets), while inside a tleserved serving serve-write's traffic
// the mean backoff sleep is about 70 µs. The sleep phase starts after 12
// steps, a microsecond or two of waiting. What the waits cost the STM is
// quiesce-ns/op in EXPERIMENTS.md "Scaling, 1 → 2 threads".
// A raw nanosleep syscall in place of time.Sleep does return after about
// 67 µs, and was measured to lose on tm-sets: speedup_vs_lock fell 13 %
// and cpu_vs_lock rose half again.
const (
	spinLimit  = 6
	yieldLimit = 12
	maxSleep   = 100 * time.Microsecond
)

// Wait performs one backoff step: busy-spin for short waits, Gosched for
// medium waits, and a short sleep once the wait has dragged on. Callers loop:
//
//	var b spinwait.Backoff
//	for !tryAcquire() {
//		b.Wait()
//	}
//
// The spin phase is kept even when GOMAXPROCS=1: replacing it with immediate
// yields looks strictly better on paper (a uniprocessor waiter can never
// observe progress while spinning), but measured ~25-35% slower end-to-end
// on the Fig. 3 pipeline — each Gosched hands the core to every other
// runnable worker for a full slice before the waiter re-checks, while the
// brief spin keeps short handoffs on the fast path.
func (b *Backoff) Wait() {
	switch {
	case b.step < spinLimit:
		x := b.spin
		for i := 0; i < 1<<b.step; i++ {
			x = x*2654435761 + 1 // burn cycles without touching shared memory
		}
		b.spin = x
	case b.step < yieldLimit:
		runtime.Gosched()
	default:
		d := time.Duration(1) << (b.step - yieldLimit) * time.Microsecond
		if d > maxSleep {
			d = maxSleep
		}
		time.Sleep(d)
	}
	if b.step < 63 {
		b.step++
	}
}

// Steps reports how many times Wait has been called since the last Reset.
func (b *Backoff) Steps() int { return int(b.step) }

// Reset restarts the schedule after a successful acquisition.
func (b *Backoff) Reset() { b.step = 0 }
