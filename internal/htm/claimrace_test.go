package htm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadRegistrationRacesWriteClaim lines a reader's registration of a
// line up against a writer's claim of it, round after round, and counts the
// rounds in which neither saw the other.
//
// Each round the writer stores y, then x; the reader loads x, then y, and
// a committed reader must see both stores or neither. The two meet at x
// after a barrier and a random spin of up to about a hundred nanoseconds
// each, so over the rounds the writer's claim lands on every instruction
// of the reader's registration. The registration is Dekker's handshake:
// the reader loads the line's writer, stamps the line, loads the writer
// again (addReadLine); the claimer CASes the writer, then loads the stamps
// (readers). Without the reader's second load a claim between its first
// load and its stamp goes unseen by both. In even rounds the reader then
// waits for the writer's attempt to end before it loads y, so that such a
// round shows as a torn pair. In odd rounds it loads y at once, which
// lands it between a committing writer's claim releases and its flush if
// the two ever trade places.
func TestReadRegistrationRacesWriteClaim(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the race needs two goroutines running at once")
	}
	h, base := newHTM(t, Config{})
	x, y := base, base+128 // distinct lines
	w, r := h.NewTx(0), h.NewTx(1)

	maxRounds, limit := uint64(40000), 2*time.Second
	if raceEnabled {
		// The detector's instrumentation narrows the window a missing
		// re-check opens to a few rounds in 100 000; five times the rounds
		// catch it as reliably there.
		maxRounds, limit = 200000, 20*time.Second
	}
	deadline := time.Now().Add(limit)
	var (
		wAt, rAt   atomic.Uint64 // the round each side has reached x in
		wEnd, rEnd atomic.Uint64 // the round each side has finished
		stop       atomic.Bool
	)
	await := func(v *atomic.Uint64, round uint64) {
		for n := 0; v.Load() < round; n++ {
			if n%256 == 255 {
				runtime.Gosched()
			}
		}
	}
	spin := func(rng *rand.Rand) {
		for n := rng.Intn(128); n > 0; n-- {
			runtime.KeepAlive(n)
		}
	}

	var wAborts int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := uint64(1); i <= maxRounds; i++ {
			await(&rEnd, i-1)
			if stop.Load() {
				wAt.Store(i)
				wEnd.Store(i)
				return
			}
			_, aborted := attempt(w, func(tx *Tx) {
				tx.Store(y, i)
				wAt.Store(i)
				await(&rAt, i)
				spin(rng)
				tx.Store(x, i)
			})
			if aborted {
				wAborts++
			}
			wAt.Store(i) // in case the attempt aborted before it got there
			wEnd.Store(i)
		}
	}()

	rng := rand.New(rand.NewSource(2))
	var rounds, rAborts, missed int
	for i := uint64(1); i <= maxRounds; i++ {
		if time.Now().After(deadline) {
			stop.Store(true)
		}
		var gx, gy uint64
		_, aborted := attempt(r, func(tx *Tx) {
			rAt.Store(i)
			await(&wAt, i)
			spin(rng)
			gx = tx.Load(x)
			if i%2 == 0 {
				await(&wEnd, i)
			}
			gy = tx.Load(y)
		})
		rAt.Store(i)
		await(&wEnd, i)
		rEnd.Store(i)
		if stop.Load() {
			break
		}
		rounds++
		switch {
		case aborted:
			rAborts++
		case gx != gy:
			if missed++; missed <= 3 {
				t.Errorf("round %d: reader committed x=%d y=%d", i, gx, gy)
			}
		}
	}
	wg.Wait()
	t.Logf("%d rounds: %d reader aborts, %d writer aborts, %d missed conflicts", rounds, rAborts, wAborts, missed)
	if missed > 0 {
		t.Fatalf("%d of %d rounds committed a torn pair", missed, rounds)
	}
	if rAborts+wAborts == 0 {
		t.Fatal("no round produced a conflict: the two sides never met")
	}
}

// TestStealSparesNextAttemptsClaim drives a stalled steal across its
// victim's next attempt, one step at a time: a stealer loads writer A's
// claim on line x; A's attempt ends; the stealer's doom (steal's first
// half) finds it ended; A's next attempt claims x again; only then does
// the stealer's CAS (steal's second half) run. That CAS must not take the
// new attempt's claim, which nobody doomed. If it did, a reader would find
// x unclaimed and A would commit over what it read: here the reader loads
// x before A commits and y after, and must never commit A's y without A's
// x.
func TestStealSparesNextAttemptsClaim(t *testing.T) {
	h, base := newHTM(t, Config{})
	x, y := base, base+128 // distinct lines
	a, r := h.NewTx(0), h.NewTx(1)
	rec := &h.lines[x.Line()]

	a.Begin()
	a.Store(x, 1)
	w := rec.writer.Load()
	a.OnAbort()
	if !h.doomClaim(w) {
		t.Fatal("doom refused an attempt that has ended")
	}
	a.Begin()
	a.Store(x, 1)
	a.Store(y, 1)
	rec.writer.CompareAndSwap(w, 0)
	if got := rec.writer.Load(); got != a.claim() {
		t.Errorf("line x's writer = %#x after the stale steal, want the live attempt's claim %#x", got, a.claim())
	}

	r.Begin()
	vx := r.Load(x)
	_, aborted := attempt2(a, func(*Tx) {})
	vy := r.Load(y)
	r.Commit()
	if vx != vy {
		t.Fatalf("reader committed x=%d, y=%d: A's attempt lost its claim on x to a steal aimed at the attempt before it", vx, vy)
	}
	if !aborted {
		t.Fatal("A committed although the reader read its claimed line")
	}
}
