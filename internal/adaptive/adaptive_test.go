package adaptive

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

// The rule, window by window: a busy window whose capacity aborts pass 10%
// of its attempts demotes; one at exactly 10%, one too idle to count
// however stormy, and one busy with conflicts or serial runs alone do not.
func TestCapacityStormDemotesHTMToSTMCVNoQ(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Sample
		want bool
	}{
		{"capStorm", Sample{Starts: 1000, Capacity: 0.60, Conflict: 0.05}, true},
		{"capEdge", Sample{Starts: 1000, Capacity: capacityDemote, Conflict: 0.03}, false},
		{"idleAtCapacity1", Sample{Starts: minStarts - 1, Capacity: 1.0}, false},
		{"busyAtMinStarts", Sample{Starts: minStarts, Capacity: 1.0}, true},
		{"quiet", Sample{Starts: 1000, Conflict: 0.01}, false},
		{"noisy", Sample{Starts: 1000, Conflict: 0.30, Serial: 0.05}, false},
	} {
		if got := demotes(tc.s); got != tc.want {
			t.Errorf("%s: demotes(%+v) = %v, want %v", tc.name, tc.s, got, tc.want)
		}
	}
}

// stormy builds a hybrid runtime whose 8-line HTM write budget a 2 KiB
// value overflows, a two-shard store on it and a controller over the
// shards.
func stormy(t *testing.T) (*tle.Runtime, *kvstore.Store, *Controller) {
	t.Helper()
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
	return r, s, ctl
}

// setN sets key to val n times on thread th.
func setN(t *testing.T, s *kvstore.Store, th *tm.Thread, key, val []byte, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Set(th, key, val); err != nil {
			t.Fatal(err)
		}
	}
}

// Idle windows (too few attempts) must not demote through the live
// controller either, however many of their few attempts overflowed.
func TestIdleWindowsDecideNothing(t *testing.T) {
	r, s, ctl := stormy(t)
	th := r.NewThread()
	key := []byte("bigkey")
	shard := s.ShardFor(key)
	for w := 0; w < 50; w++ {
		setN(t, s, th, key, make([]byte, 2048), 4)
		if n := ctl.Tick(); n != 0 {
			t.Fatalf("idle window %d switched %d shards", w, n)
		}
	}
	st := ctl.Status()[shard]
	if st.Policy != tle.PolicyHTMCondVar || st.Switches != 0 {
		t.Fatalf("idle trace moved the shard: %+v", st)
	}
	if st.Window.Starts >= minStarts || st.Window.Capacity <= capacityDemote {
		t.Fatalf("window %+v is not an idle stormy one", st.Window)
	}
}

// Live teeth test: a hybrid runtime with a tiny HTM write budget serving
// large values must observe real capacity aborts and demote the hot
// shard off htm-cv via the Controller (no synthetic samples).
func TestControllerLiveCapacityDemotion(t *testing.T) {
	r, s, ctl := stormy(t)
	th := r.NewThread()
	val := make([]byte, 2048) // 256 words = 32 lines >> the 8-line budget
	key := []byte("bigkey")
	shard := s.ShardFor(key)
	for w := 0; w < 4; w++ {
		setN(t, s, th, key, val, 50)
		ctl.Tick()
	}
	st := ctl.Status()[shard]
	if st.Policy == tle.PolicyHTMCondVar {
		t.Fatalf("hot shard still on htm-cv after capacity storm: %+v", st)
	}
	if st.Switches == 0 {
		t.Fatal("controller recorded no switches")
	}
	t.Logf("shard %d: policy=%s switches=%d window=%+v", shard, st.Policy, st.Switches, st.Window)
}

// A capacity storm wakes the controller: with an hour-long window, a
// one-shard store whose 24-line HTM write budget 2 KiB values overflow
// leaves htm-cv while two goroutines set them, long before the first tick.
// 64 B values, which fit, never wake it.
func TestCapacityStormWakesController(t *testing.T) {
	for _, tc := range []struct {
		size  int
		storm bool
	}{{2048, true}, {64, false}} {
		t.Run(fmt.Sprintf("%dB", tc.size), func(t *testing.T) {
			r := tle.New(tle.PolicyHTMCondVar, tle.Config{
				MemWords: 1 << 21,
				Hybrid:   true,
				Observe:  true,
				HTM:      htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: -1},
			})
			s := kvstore.New(r, kvstore.Config{Shards: 1, MaxItemsPerShard: 512})
			ctl, err := New(r, s.ShardMutexes(), Config{Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			ctl.Start()
			defer ctl.Stop()
			mu := s.ShardMutexes()[0]
			const perWorker = 2000
			deadline := time.Now().Add(10 * time.Second)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := r.NewThread()
					defer th.Release()
					val := make([]byte, tc.size)
					for i := 0; ; i++ {
						if tc.storm && (mu.CurrentPolicy() != tle.PolicyHTMCondVar || time.Now().After(deadline)) {
							return
						}
						if !tc.storm && i == perWorker {
							return
						}
						if err := s.Set(th, []byte(fmt.Sprintf("w%d-%d", w, i%256)), val); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			ctl.Stop()
			st, wakes := ctl.Status()[0], ctl.wakes.Load()
			t.Logf("%+v after %d wake-ups and %d capacity aborts", st, wakes, mu.Observer().Snapshot().Aborts[stats.Capacity])
			if tc.storm && (st.Policy != tle.PolicySTMCondVarNoQ || st.Switches != 1) {
				t.Fatalf("2 KiB sets left the shard on %s after %d wake-ups, want stm-cv-noq before the first tick", st.Policy, wakes)
			}
			if !tc.storm && (wakes != 0 || st.Policy != tle.PolicyHTMCondVar) {
				t.Fatalf("64 B sets woke the controller %d times, policy %s", wakes, st.Policy)
			}
		})
	}
}

// A demoted shard stays demoted: after its storm, 100 busy windows of
// small sets that no longer overflow anything leave it on stm-cv-noq with
// the one switch, and the cold shard never moves.
func TestDemotionIsForGood(t *testing.T) {
	r, s, ctl := stormy(t)
	th := r.NewThread()
	key := []byte("bigkey")
	shard := s.ShardFor(key)
	setN(t, s, th, key, make([]byte, 2048), 50)
	if n := ctl.Tick(); n != 1 {
		t.Fatalf("storm window switched %d shards, want 1", n)
	}
	small := make([]byte, 64)
	for w := 0; w < 100; w++ {
		setN(t, s, th, key, small, 100)
		if n := ctl.Tick(); n != 0 {
			t.Fatalf("quiet window %d switched %d shards", w, n)
		}
	}
	sts := ctl.Status()
	if st := sts[shard]; st.Policy != tle.PolicySTMCondVarNoQ || st.Switches != 1 ||
		st.Window.Starts < minStarts || st.Window.Capacity != 0 {
		t.Fatalf("hot shard after 100 busy quiet windows: %+v, want stm-cv-noq after 1 switch", st)
	}
	if st := sts[1-shard]; st.Policy != tle.PolicyHTMCondVar || st.Switches != 0 {
		t.Fatalf("cold shard moved: %+v", st)
	}
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
	if st := ctl.Status()[0]; st.Policy != tle.PolicySTMCondVarNoQ || st.Switches != 0 {
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

// TestDemotingWindowStaysVisible runs BenchmarkCapacityStorm's fill (8
// shards of 2 048 items, 64 B and 2 KiB sets on two threads, a 24-line HTM
// write budget) and then closes one more window: each shard that left
// htm-cv reports, beside that last window, the window that demoted it, whose
// capacity-abort rate is over the demotion threshold.
func TestDemotingWindowStaysVisible(t *testing.T) {
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{
		MemWords:        1 << 23,
		Hybrid:          true,
		Observe:         true,
		DeferredReclaim: true,
		StripeShift:     3,
		HTM:             htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: -1},
	})
	s := kvstore.New(r, kvstore.Config{Shards: 8, MaxItemsPerShard: 2048})
	ctl, err := New(r, s.ShardMutexes(), Config{Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	small, large := make([]byte, 64), make([]byte, 2048)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := r.NewThread()
			defer th.Release()
			for k := w; k < 16384; k += 2 {
				val := small
				if k%2 == 1 {
					val = large
				}
				if err := s.Set(th, []byte(fmt.Sprintf("key:%08d", k)), val); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ctl.Stop()
	th := r.NewThread()
	defer th.Release()
	for k := 0; k < 4096; k++ { // a quiet window: 64 B overwrites
		if err := s.Set(th, []byte(fmt.Sprintf("key:%08d", k&^1)), small); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Tick()
	demoted := 0
	for _, st := range ctl.Status() {
		if st.Switches == 0 {
			if st.Demoted != (Sample{}) {
				t.Fatalf("shard %d, still on %s, reports a demoting window %+v", st.Shard, st.Policy, st.Demoted)
			}
			continue
		}
		demoted++
		if st.Demoted.Capacity <= capacityDemote || st.Demoted == st.Window {
			t.Fatalf("shard %d: demoting window %+v, last window %+v; want the storm's beside the quiet one", st.Shard, st.Demoted, st.Window)
		}
	}
	if demoted == 0 {
		t.Fatal("the fill demoted no shard")
	}
}

// BenchmarkCapacityStorm is the fill a fresh tleserved starts with under
// serve-write's traffic: a store of tleserved's shape (8 shards of 2048
// items, a 24-line HTM write budget, the controller at 50 ms) takes 16 384
// sets of distinct keys from two goroutines, split by key parity as the
// benchmark's prefill splits them: even keys get 64 B values, odd keys
// 2 KiB. The 2 KiB sets overflow the HTM until their shard leaves htm-cv.
// ns/op is the whole fill; capacity-aborts/set and serial-runs/set say how
// much of it was spent before the shards demoted.
func BenchmarkCapacityStorm(b *testing.B) {
	const sets = 16384
	small, large := make([]byte, 64), make([]byte, 2048)
	var caps, serial uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // unmap the previous fill's heap
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{
			MemWords:        1 << 23,
			Hybrid:          true,
			Observe:         true,
			DeferredReclaim: true,
			StripeShift:     3,
			HTM:             htm.Config{WriteCapacityLines: 24, EventAbortPerMillion: 5},
		})
		s := kvstore.New(r, kvstore.Config{Shards: 8, MaxItemsPerShard: 2048})
		ctl, err := New(r, s.ShardMutexes(), Config{Interval: 50 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		ctl.Start()
		b.StartTimer()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := r.NewThread()
				defer th.Release()
				for k := w; k < sets; k += 2 {
					val := small
					if k%2 == 1 {
						val = large
					}
					if err := s.Set(th, []byte(fmt.Sprintf("key:%08d", k)), val); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		ctl.Stop()
		es := r.Engine().Snapshot()
		caps += es.Aborts[stats.Capacity]
		serial += es.SerialRuns
	}
	n := float64(b.N) * sets
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/set")
	b.ReportMetric(float64(caps)/n, "capacity-aborts/set")
	b.ReportMetric(float64(serial)/n, "serial-runs/set")
}
