package adaptive

import (
	"testing"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/stats"
	"gotle/internal/tle"
)

func cfg() Config {
	return Config{MinStarts: 10}
}

// quiet and stormy windows for synthetic traces.
var (
	quiet    = Sample{Starts: 1000, Conflict: 0.01, Serial: 0.0}
	conflict = Sample{Starts: 1000, Conflict: 0.80, Serial: 0.10}
	capStorm = Sample{Starts: 1000, Capacity: 0.60, Conflict: 0.05}
	border   = Sample{Starts: 1000, Conflict: 0.30, Serial: 0.05} // between promote and demote thresholds
)

// The teeth test: a capacity-abort storm at htm-cv must demote to
// stm-cv-noq, the rung where large freeing writers are cheap now that the
// engine defers their grace periods to the batched background reclaimer —
// and must then stay out of htm-cv for the holdoff.
func TestCapacityStormDemotesHTMToSTMCVNoQ(t *testing.T) {
	d := NewDecider(cfg(), Ladder, tle.PolicyHTMCondVar)
	dec := d.Step(capStorm)
	if !dec.Switched || dec.Target != tle.PolicySTMCondVarNoQ {
		t.Fatalf("capacity storm: switched=%v target=%s, want switch to stm-cv-noq", dec.Switched, dec.Target)
	}
	// The shard must not crawl back into htm-cv the moment things calm
	// down: the holdoff keeps it out even after the promote streak.
	for i := 0; i < 8; i++ {
		if dec := d.Step(quiet); dec.Switched && dec.Target == tle.PolicyHTMCondVar {
			t.Fatalf("window %d: re-promoted to htm-cv during holdoff", i)
		}
	}
	// After the holdoff expires, quiet windows do climb the ladder home.
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
	d := NewDecider(cfg(), Ladder, tle.PolicyHTMCondVar)

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

// A sustained conflict regime walks the ladder one rung per decision —
// never skipping, never bouncing — and parks at pthread.
func TestConflictStormStepsDownToPthread(t *testing.T) {
	d := NewDecider(cfg(), Ladder, tle.PolicyHTMCondVar)
	want := []tle.Policy{tle.PolicySTMCondVarNoQ, tle.PolicySTMCondVar, tle.PolicyPthread}
	var moves []tle.Policy
	for i := 0; i < 20; i++ {
		if dec := d.Step(conflict); dec.Switched {
			moves = append(moves, dec.Target)
		}
	}
	if len(moves) != len(want) {
		t.Fatalf("moves = %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("move %d = %s, want %s", i, moves[i], want[i])
		}
	}
	if d.Current() != tle.PolicyPthread {
		t.Fatalf("parked at %s, want pthread", d.Current())
	}
}

// Hysteresis: a borderline trace that sits between the promote and demote
// thresholds must not oscillate. Each Step may move at most one rung, and
// a trace alternating quiet and borderline windows must produce almost no
// switches at all.
func TestNoOscillationOnBorderlineTrace(t *testing.T) {
	d := NewDecider(cfg(), Ladder, tle.PolicySTMCondVar)
	switches := 0
	for i := 0; i < 200; i++ {
		s := border
		if i%2 == 0 {
			s = quiet
		}
		dec := d.Step(s)
		if dec.Switched {
			switches++
		}
	}
	// The alternating trace resets the promote streak every other window
	// and never crosses a demote threshold: the decider must hold still.
	if switches != 0 {
		t.Fatalf("borderline trace produced %d switches, want 0", switches)
	}
}

// Even a trace engineered to flap (alternating storm and calm) is rate-
// limited by cooldown + streak: at most one switch per window by
// construction, and far fewer than the number of windows in practice.
func TestSwitchRateBoundedUnderFlappingTrace(t *testing.T) {
	d := NewDecider(cfg(), Ladder, tle.PolicyHTMCondVar)
	const windows = 120
	switches := 0
	for i := 0; i < windows; i++ {
		s := conflict
		if i%4 != 0 {
			s = quiet
		}
		if dec := d.Step(s); dec.Switched {
			switches++
		}
	}
	// switchCooldown (2) + promoteStreak (3) mean a full down-up round trip needs
	// at least 7 windows; the flapping trace cannot do better.
	if switches > windows/6 {
		t.Fatalf("%d switches in %d windows: hysteresis not limiting flap", switches, windows)
	}
}

// Idle windows (too few starts) must neither demote nor count toward
// promotion.
func TestIdleWindowsDecideNothing(t *testing.T) {
	d := NewDecider(cfg(), Ladder, tle.PolicySTMCondVar)
	for i := 0; i < 50; i++ {
		if dec := d.Step(Sample{Starts: 3, Conflict: 1.0, Serial: 1.0}); dec.Switched {
			t.Fatalf("idle window %d switched to %s", i, dec.Target)
		}
	}
	if d.Current() != tle.PolicySTMCondVar {
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
	ctl, err := New(r, s.ShardMutexes(), Config{MinStarts: 16})
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

// The controller must refuse observerless mutexes and drop unsupported
// ladder rungs.
func TestControllerConstruction(t *testing.T) {
	r := tle.New(tle.PolicySTMCondVar, tle.Config{MemWords: 1 << 14})
	m := r.NewMutex("no-obs")
	if _, err := New(r, []*tle.Mutex{m}, Config{}); err == nil {
		t.Fatal("accepted a mutex without an observer")
	}

	ro := tle.New(tle.PolicySTMCondVar, tle.Config{MemWords: 1 << 14, Observe: true})
	mo := ro.NewMutex("obs")
	ctl, err := New(ro, []*tle.Mutex{mo}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// STM-only runtime: htm-cv dropped, decider starts at the mutex's
	// own (supported) policy.
	if got := ctl.Status()[0].Policy; got != tle.PolicySTMCondVar {
		t.Fatalf("policy = %s", got)
	}
	// A synthetic conflict storm still works through Tick's live
	// sampling path: hammer the mutex with explicit retries is overkill
	// here; just verify Tick runs and Status stays coherent.
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
