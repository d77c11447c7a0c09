package adaptive

import (
	"fmt"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/stats"
	"gotle/internal/tle"
)

// deciderAt builds a decider on rung p.
func deciderAt(p tle.Policy) *Decider { return NewDecider(p) }

// quiet and stormy windows for synthetic traces.
var (
	quiet    = Sample{Starts: 1000, Conflict: 0.01, Serial: 0.0}
	capStorm = Sample{Starts: 1000, Capacity: 0.60, Conflict: 0.05}
	capEdge  = Sample{Starts: 1000, Capacity: capacityDemote, Conflict: 0.03} // at the trigger, not above it
	noisy    = Sample{Starts: 1000, Conflict: 0.30, Serial: 0.05}             // too busy to count as quiet
)

// The teeth test: a capacity-abort storm at htm-cv must demote to
// stm-cv-noq, the rung where large freeing writers are cheap because the
// engine parks their freed blocks on the committing thread instead of
// waiting out a grace period — and must then stay out of htm-cv for the
// holdoff.
func TestCapacityStormDemotesHTMToSTMCVNoQ(t *testing.T) {
	d := deciderAt(tle.PolicyHTMCondVar)
	dec := d.Step(capStorm)
	if !dec.Switched || dec.Target != tle.PolicySTMCondVarNoQ {
		t.Fatalf("capacity storm: switched=%v target=%s, want switch to stm-cv-noq", dec.Switched, dec.Target)
	}
	// The shard must not crawl back into htm-cv the moment things calm
	// down: the holdoff keeps it out even after the quiet streak.
	for i := 0; i < 8; i++ {
		if dec := d.Step(quiet); dec.Switched && dec.Target == tle.PolicyHTMCondVar {
			t.Fatalf("window %d: re-promoted to htm-cv during holdoff", i)
		}
	}
	// After the holdoff expires, quiet windows do bring it back.
	saw := false
	for i := 0; i < 2*htmHoldoff && !saw; i++ {
		saw = d.Step(quiet).Target == tle.PolicyHTMCondVar
	}
	if !saw {
		t.Fatal("never re-promoted to htm-cv after holdoff expiry")
	}
}

// A workload whose capacity storms are intrinsic (the storm returns the
// moment the shard re-enters htm-cv) must be held out geometrically
// longer each round trip, not re-admitted every htmHoldoff windows.
func TestRepeatedCapacityStormsEscalateHoldoff(t *testing.T) {
	d := deciderAt(tle.PolicyHTMCondVar)

	// roundTrip storms the shard off htm-cv (riding out any switch
	// cooldown), then feeds quiet windows until it climbs back,
	// returning how many quiet windows the climb took.
	roundTrip := func() int {
		demoted := false
		for i := 0; i < 10 && !demoted; i++ {
			dec := d.Step(capStorm)
			demoted = dec.Switched && dec.Target == tle.PolicySTMCondVarNoQ
		}
		if !demoted {
			t.Fatal("capacity storm never demoted the shard")
		}
		for i := 1; i <= 2000; i++ {
			if d.Step(quiet).Target == tle.PolicyHTMCondVar {
				return i
			}
		}
		t.Fatal("never re-promoted to htm-cv")
		return 0
	}

	first := roundTrip()
	second := roundTrip()
	third := roundTrip()
	if second < first+htmHoldoff || third < second+2*htmHoldoff {
		t.Fatalf("holdoff not escalating: round trips took %d, %d, %d windows",
			first, second, third)
	}
}

// Hysteresis: a trace that sits on the trigger's edge must not oscillate.
// Windows at exactly the capacity threshold alternating with quiet ones keep
// a shard on htm-cv, and noisy windows alternating with quiet ones reset the
// quiet streak every other window, so a shard on stm-cv-noq never returns.
func TestNoOscillationOnBorderlineTrace(t *testing.T) {
	for _, tc := range []struct {
		start tle.Policy
		edge  Sample
	}{{tle.PolicyHTMCondVar, capEdge}, {tle.PolicySTMCondVarNoQ, noisy}} {
		d := deciderAt(tc.start)
		for i := 0; i < 200; i++ {
			s := tc.edge
			if i%2 == 0 {
				s = quiet
			}
			if dec := d.Step(s); dec.Switched {
				t.Fatalf("%s: window %d switched to %s", tc.start, i, dec.Target)
			}
		}
	}
}

// Even a trace engineered to flap (a capacity storm every fourth window,
// calm between) is rate-limited by the cooldown, the quiet streak and the
// holdoff: far fewer switches than windows.
func TestSwitchRateBoundedUnderFlappingTrace(t *testing.T) {
	d := deciderAt(tle.PolicyHTMCondVar)
	const windows = 120
	switches := 0
	for i := 0; i < windows; i++ {
		s := capStorm
		if i%4 != 0 {
			s = quiet
		}
		if dec := d.Step(s); dec.Switched {
			switches++
		}
	}
	if switches > windows/6 {
		t.Fatalf("%d switches in %d windows: hysteresis not limiting flap", switches, windows)
	}
}

// The shape of serve-write's traffic, replayed window by window: on htm-cv
// the 2 KiB sets overflow the write budget (a capacity storm) except from
// window 900 to 1299, where the workload runs clean; on stm-cv-noq one
// window in three carries traffic and is quiet and the rest are idle, as
// the benchmark's lock slices leave the elided server. Every switch is
// pinned: each storm right after a return parks the shard twice as long as
// the one before (64, 128, 256, 512 windows), and the storm after the clean
// spell starts over at 64.
func TestDeciderReplaysServeWriteSchedule(t *testing.T) {
	storm := Sample{Starts: 900, Capacity: 0.40, Conflict: 0.01}
	busy := Sample{Starts: 300, Conflict: 0.01}
	idle := Sample{Starts: 20}
	type move struct {
		window int
		target tle.Policy
	}
	const htmCV, noq = tle.PolicyHTMCondVar, tle.PolicySTMCondVarNoQ
	want := []move{
		{0, noq}, {66, htmCV}, {69, noq}, {198, htmCV}, {201, noq},
		{459, htmCV}, {462, noq}, {975, htmCV}, {1300, noq},
		{1365, htmCV}, {1368, noq}, {1497, htmCV}, {1500, noq},
	}
	d := deciderAt(htmCV)
	var got []move
	for w := 0; w < 1600; w++ {
		s := idle
		switch {
		case d.Current() == htmCV && (w < 900 || w >= 1300):
			s = storm
		case d.Current() == htmCV || w%3 == 0:
			s = busy
		}
		if dec := d.Step(s); dec.Switched {
			got = append(got, move{w, dec.Target})
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("switches (window, target):\n got  %v\n want %v", got, want)
	}
}

// Idle windows (too few starts) must neither demote nor count toward
// promotion, however stormy their few attempts were.
func TestIdleWindowsDecideNothing(t *testing.T) {
	d := deciderAt(tle.PolicyHTMCondVar)
	for i := 0; i < 50; i++ {
		if dec := d.Step(Sample{Starts: minStarts - 1, Capacity: 1.0}); dec.Switched {
			t.Fatalf("idle window %d switched to %s", i, dec.Target)
		}
	}
	if d.Current() != tle.PolicyHTMCondVar {
		t.Fatalf("idle trace moved the decider to %s", d.Current())
	}
}

// Live teeth test: a hybrid runtime with a tiny HTM write budget serving
// large values must observe real capacity aborts and demote the hot
// shard off htm-cv via the Controller (no synthetic samples).
func TestControllerLiveCapacityDemotion(t *testing.T) {
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{
		MemWords: 1 << 20,
		Hybrid:   true,
		Observe:  true,
		HTM:      htm.Config{WriteCapacityLines: 8, EventAbortPerMillion: -1},
	})
	s := kvstore.New(r, kvstore.Config{Shards: 2})
	ctl, err := New(r, s.ShardMutexes(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	th := r.NewThread()
	val := make([]byte, 2048) // 256 words = 32 lines >> the 8-line budget
	key := []byte("bigkey")
	shard := s.ShardFor(key)
	for w := 0; w < 4; w++ {
		for i := 0; i < 50; i++ {
			if err := s.Set(th, key, val); err != nil {
				t.Fatal(err)
			}
		}
		ctl.Tick()
	}
	st := ctl.Status()[shard]
	if st.Policy == tle.PolicyHTMCondVar {
		t.Fatalf("hot shard still on htm-cv after capacity storm: %+v", st)
	}
	if st.Switches == 0 {
		t.Fatal("controller recorded no switches")
	}
	t.Logf("shard %d: policy=%s switches=%d reason=%q window=%+v",
		shard, st.Policy, st.Switches, st.LastReason, st.Window)
}

// The controller must refuse a mutex without an observer, a runtime that
// cannot run both rungs, and a mutex that is not on one.
func TestControllerConstruction(t *testing.T) {
	refuse := func(what string, r *tle.Runtime) {
		t.Helper()
		if _, err := New(r, []*tle.Mutex{r.NewMutex(what)}, Config{}); err == nil {
			t.Fatalf("accepted %s", what)
		}
	}
	refuse("a mutex without an observer", tle.New(tle.PolicyHTMCondVar, tle.Config{MemWords: 1 << 14, Hybrid: true}))
	refuse("an STM-only runtime", tle.New(tle.PolicySTMCondVarNoQ, tle.Config{MemWords: 1 << 14, Observe: true}))
	refuse("a pthread mutex", tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 14, Hybrid: true, Observe: true}))

	r := tle.New(tle.PolicySTMCondVarNoQ, tle.Config{MemWords: 1 << 14, Hybrid: true, Observe: true})
	ctl, err := New(r, []*tle.Mutex{r.NewMutex("obs")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := ctl.Status()[0]; st.Policy != tle.PolicySTMCondVarNoQ || st.LastReason != "none" {
		t.Fatalf("status = %+v", st)
	}
	if n := ctl.Tick(); n != 0 {
		t.Fatalf("idle tick switched %d", n)
	}
	ctl.Start()
	ctl.Start() // idempotent
	ctl.Stop()
	ctl.Stop() // idempotent
}

// sampleOf's three rates are all over starts — what the deleted
// stats.ObserverSnapshot's CapacityRate/ConflictRate/SerialRate returned for
// these counts — and its serial rate is not Snapshot.SerialRate (over
// commits), which is the paper's figure and a different number.
func TestSampleOfRatesAreOverStarts(t *testing.T) {
	d := stats.Snapshot{Starts: 100, Commits: 60, SerialRuns: 7}
	d.Aborts = [stats.NumCauses]uint64{
		stats.Conflict: 10, stats.Capacity: 8, stats.Explicit: 6, stats.Event: 4,
		stats.Validation: 5, stats.Locked: 3, stats.Serial: 4,
	}
	got := sampleOf(d)
	want := Sample{Starts: 100, Capacity: 0.08, Conflict: 0.26, Serial: 0.07}
	if got != want {
		t.Fatalf("sampleOf = %+v, want %+v", got, want)
	}
	if d.SerialRate() == got.Serial {
		t.Fatalf("Snapshot.SerialRate (%v, over commits) must differ from Sample.Serial (over starts)", d.SerialRate())
	}
	if z := sampleOf(stats.Snapshot{}); z != (Sample{}) {
		t.Fatalf("sampleOf(zero) = %+v, want zero", z)
	}
}
