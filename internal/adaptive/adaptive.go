// Package adaptive is an online per-lock policy controller: it samples each
// elided mutex's abort counters over fixed windows and moves a mutex off
// htm-cv, once and for good, when its write sets overflow the hardware:
//
//	htm-cv → stm-cv-noq
//
// Capacity is the paper's reason to leave HTM (Section VII): a write set
// that overflows the hardware budget aborts on every attempt, so its first
// capacity abort sends the section to the serial lock (tm.CallOpts). Figure
// 5 shows NoQuiesce paying off on exactly those big freeing writers, and
// with deferred reclamation their frees no longer force a synchronous grace
// period, so stm-cv-noq is where they land.
//
// The rule: a window with at least 64 attempts whose capacity aborts pass
// 10% of them demotes its shard. A window with fewer attempts is idle and
// decides nothing. Windows close every Interval, but a storm need not wait
// for that: every wakeEvery-th capacity abort of a shard's mutex wakes the
// controller (tle.Mutex.OnCapacity), which applies the same rule to each
// htm-cv shard's window so far and leaves the window open. Traffic without
// capacity aborts never wakes it. There is no way back: which write sets
// overflow the budget is a property of the data served, so a shard that
// returned to htm-cv stormed again within a second. A shard therefore
// switches at most once (EXPERIMENTS "Adaptive per-shard policy").
package adaptive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/stats"
	"gotle/internal/tle"
)

// Config parameterises the controller.
type Config struct {
	// Interval is the sampling window length for Controller.Start
	// (default 50ms). Tick ignores it.
	Interval time.Duration
}

// The demotion rule's thresholds (the rate is over a window's starts).
const (
	minStarts      = 64   // windows with fewer attempts are idle
	capacityDemote = 0.10 // capacity-abort rate above which htm-cv is abandoned
	wakeEvery      = 8    // a shard's capacity aborts per wake-up of the controller
)

// Sample is one window's observation of one mutex, as rates over the
// window's attempt count.
type Sample struct {
	Starts   uint64
	Capacity float64 // capacity aborts / starts
	Conflict float64 // conflict-class aborts / starts
	Serial   float64 // serial-lock executions / starts
}

// sampleOf turns one window of a mutex's counters into rates. Serial here is
// serial runs over starts; stats.Snapshot.SerialRate, the paper's figure, is
// over commits.
func sampleOf(d stats.Snapshot) Sample {
	s := Sample{Starts: d.Starts}
	if d.Starts > 0 {
		n := float64(d.Starts)
		s.Capacity = float64(d.Aborts[stats.Capacity]) / n
		s.Conflict = float64(d.ConflictAborts()-d.Aborts[stats.Capacity]) / n
		s.Serial = float64(d.SerialRuns) / n
	}
	return s
}

// demotes reports whether one window of a shard on htm-cv moves it to
// stm-cv-noq.
func demotes(s Sample) bool {
	return s.Starts >= minStarts && s.Capacity > capacityDemote
}

// ShardStatus is one shard's controller state, as exposed over the
// server's stats command.
type ShardStatus struct {
	Shard    int
	Policy   tle.Policy
	Switches uint64 // 0, or 1 once the shard has left htm-cv
	Window   Sample // most recent non-trivial window
	Demoted  Sample // the window that demoted the shard; zero while on htm-cv
}

type shardCtl struct {
	mu   *tle.Mutex
	prev stats.Snapshot
	wake chan<- struct{} // the controller's
	caps atomic.Uint32   // capacity aborts the mutex has reported

	mtx      sync.Mutex
	switches uint64
	window   Sample
	demoted  Sample
}

// Controller samples a set of mutexes (typically a store's shards) and
// demotes each one that storms via tle.Mutex.SetPolicy.
type Controller struct {
	cfg    Config
	shards []*shardCtl
	wake   chan struct{} // one slot: a storm's wake-ups coalesce
	wakes  atomic.Uint64 // wake-ups the sampling loop has taken

	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

// New builds a controller over mutexes. The runtime must run both rungs
// (Config.Hybrid), and every mutex must be on one and carry an observer
// (Config.Observe).
func New(r *tle.Runtime, mutexes []*tle.Mutex, cfg Config) (*Controller, error) {
	if !r.Supports(tle.PolicyHTMCondVar) || !r.Supports(tle.PolicySTMCondVarNoQ) {
		return nil, fmt.Errorf("adaptive: runtime cannot run both htm-cv and stm-cv-noq (build it with Hybrid)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	c := &Controller{cfg: cfg, wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	for i, m := range mutexes {
		if m.Observer() == nil {
			return nil, fmt.Errorf("adaptive: mutex %d has no observer (build the runtime with Observe)", i)
		}
		p := m.CurrentPolicy()
		if p != tle.PolicyHTMCondVar && p != tle.PolicySTMCondVarNoQ {
			return nil, fmt.Errorf("adaptive: mutex %d is on %s, not htm-cv or stm-cv-noq", i, p)
		}
		c.shards = append(c.shards, &shardCtl{mu: m, prev: m.Observer().Snapshot(), wake: c.wake})
	}
	for _, sc := range c.shards {
		sc.mu.OnCapacity(sc.capacity)
	}
	return c, nil
}

// capacity is the shard mutex's capacity hook: every wakeEvery-th call
// offers the controller a wake-up, without blocking.
func (sc *shardCtl) capacity() {
	if sc.caps.Add(1)%wakeEvery != 0 {
		return
	}
	select {
	case sc.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Tick closes one sampling window over every shard and demotes each shard
// still on htm-cv whose window stormed. It returns the number of switches
// performed. Tests and deterministic drivers call it directly; Start calls
// it on the configured interval.
func (c *Controller) Tick() int { return c.decide(true) }

// decide applies the rule to each shard's window so far. Closing, it
// samples every shard and starts its next window; otherwise (a wake-up) it
// looks only at the shards still on htm-cv and leaves their windows open.
func (c *Controller) decide(closing bool) int {
	switched := 0
	for i, sc := range c.shards {
		onHTM := sc.mu.CurrentPolicy() == tle.PolicyHTMCondVar
		if !onHTM && !closing {
			continue
		}
		cur := sc.mu.Observer().Snapshot()
		s := sampleOf(cur.Sub(sc.prev))
		demote := onHTM && demotes(s)
		if closing {
			sc.prev = cur
		} else if !demote {
			continue // Status keeps showing the last closed window
		}
		if demote {
			if err := sc.mu.SetPolicy(tle.PolicySTMCondVarNoQ); err != nil {
				// New checked that the runtime runs both rungs: an error
				// here is a programming bug, surface it loudly.
				panic(fmt.Sprintf("adaptive: SetPolicy(shard %d, %s): %v", i, tle.PolicySTMCondVarNoQ, err))
			}
			switched++
		}
		sc.mtx.Lock()
		if demote {
			sc.switches++
			sc.demoted = s
		}
		if s.Starts > 0 {
			sc.window = s
		}
		sc.mtx.Unlock()
	}
	return switched
}

// Start launches the sampling loop: a window closes every Interval, and a
// wake-up decides early. Stop halts it and waits.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Tick()
				case <-c.wake:
					c.wakes.Add(1)
					c.decide(false)
				}
			}
		}()
	})
}

// Stop halts the sampling loop started by Start and waits for it to exit.
// Safe to call multiple times and without a prior Start. The mutexes keep
// their hooks; with no loop to take it, the one wake-up slot stays full
// and their offers are dropped.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to wait for
	<-c.done
}

// Status snapshots every shard's controller state.
func (c *Controller) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, sc := range c.shards {
		sc.mtx.Lock()
		out[i] = ShardStatus{
			Shard:    i,
			Policy:   sc.mu.CurrentPolicy(),
			Switches: sc.switches,
			Window:   sc.window,
			Demoted:  sc.demoted,
		}
		sc.mtx.Unlock()
	}
	return out
}
