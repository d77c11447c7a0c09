// Package adaptive is an online per-lock policy controller: it samples each
// elided mutex's abort counters over fixed windows and moves the mutex
// between the two rungs its traffic takes,
//
//	htm-cv ⇄ stm-cv-noq
//
// Capacity is the paper's reason to leave HTM (Section VII): a write set
// that overflows the hardware budget aborts on every attempt and falls back
// to serial after two tries. Figure 5 shows NoQuiesce paying off on exactly
// those big freeing writers, and with deferred reclamation their frees no
// longer force a synchronous grace period, so stm-cv-noq is where they land.
//
// Down: a capacity-abort rate above 10% of a busy window's attempts.
// Back: once the holdoff has run out and the last three busy windows were
// quiet. The holdoff starts at 64 windows and doubles, up to 2048, for every
// storm that strikes soon after a return — a write set that overflows the
// budget is a property of the data served, so the first probe back usually
// re-storms — and starts over after 256 windows clean on htm-cv. Every
// switch is followed by a two-window cooldown, and a window with fewer than
// 64 attempts is idle and decides nothing.
//
// The Decider is pure (one Step per window, no clocks, no goroutines) so
// tests can drive it with synthetic traces; the Controller owns the
// sampling loop and the SetPolicy calls.
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

// The Decider's thresholds (rates are over a window's starts).
const (
	minStarts      = 64   // windows with fewer attempts are idle
	capacityDemote = 0.10 // capacity-abort rate above which htm-cv is abandoned
	conflictQuiet  = 0.05 // rates below which a busy window is quiet
	serialQuiet    = 0.02
	quietStreak    = 3 // consecutive quiet busy windows the way back needs
	switchCooldown = 2 // windows a shard holds still after any switch
	// htmHoldoff is the number of windows a demoted shard is barred from
	// htm-cv, doubled (at most maxDoublings times) for each storm that
	// struck within 4*htmHoldoff windows of a return.
	htmHoldoff   = 64
	maxDoublings = 5
)

// Switch reasons, as Decision.Reason and ShardStatus.LastReason carry them.
const (
	ReasonCapacityStorm  = "capacity_storm"
	ReasonHoldoffExpired = "holdoff_expired"
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

// Decision is the outcome of one Decider step.
type Decision struct {
	Target   tle.Policy // policy after the step (== current when !Switched)
	Switched bool
	Reason   string // ReasonCapacityStorm or ReasonHoldoffExpired, when Switched
}

// Decider is the pure per-shard policy automaton: feed it one Sample per
// window, get at most one switch back.
type Decider struct {
	onHTM    bool
	cooldown int
	streak   int // consecutive quiet busy windows on stm-cv-noq
	htmHold  int // windows left before stm-cv-noq may return to htm-cv
	// storms counts the demotions since the shard last ran clean on htm-cv
	// for 4*htmHoldoff windows (htmAge, reset on every return): each one
	// doubles the next holdoff.
	storms int
	htmAge int
}

// NewDecider builds a decider on current, which is htm-cv or stm-cv-noq.
func NewDecider(current tle.Policy) *Decider {
	return &Decider{onHTM: current == tle.PolicyHTMCondVar}
}

// Current returns the decider's rung.
func (d *Decider) Current() tle.Policy {
	if d.onHTM {
		return tle.PolicyHTMCondVar
	}
	return tle.PolicySTMCondVarNoQ
}

// Step consumes one window and returns at most one switch.
func (d *Decider) Step(s Sample) Decision {
	if d.htmHold > 0 {
		d.htmHold--
	}
	if d.onHTM {
		d.htmAge++
	}
	switch {
	case d.cooldown > 0:
		d.cooldown--
	case s.Starts < minStarts:
		// Idle: proves nothing, and neither breaks nor extends a streak.
	case d.onHTM:
		if s.Capacity > capacityDemote {
			if d.htmAge > 4*htmHoldoff {
				d.storms = 0
			}
			d.htmHold = htmHoldoff << min(d.storms, maxDoublings)
			d.storms++
			return d.switchTo(false, ReasonCapacityStorm)
		}
	case s.Conflict < conflictQuiet && s.Serial < serialQuiet:
		d.streak++
		if d.streak >= quietStreak && d.htmHold == 0 {
			d.htmAge = 0
			return d.switchTo(true, ReasonHoldoffExpired)
		}
	default:
		d.streak = 0
	}
	return Decision{Target: d.Current()}
}

func (d *Decider) switchTo(htm bool, reason string) Decision {
	d.onHTM = htm
	d.cooldown = switchCooldown
	d.streak = 0
	return Decision{Target: d.Current(), Switched: true, Reason: reason}
}

// ShardStatus is one shard's controller state, as exposed over the
// server's stats command.
type ShardStatus struct {
	Shard      int
	Policy     tle.Policy
	Switches   uint64
	LastReason string // the last switch's reason, "none" before the first
	Window     Sample // most recent non-trivial window
}

type shardCtl struct {
	mu   *tle.Mutex
	dec  *Decider
	prev stats.Snapshot

	mtx        sync.Mutex
	switches   uint64
	lastReason string
	window     Sample
}

// Controller samples a set of mutexes (typically a store's shards) and
// applies the Decider's moves via tle.Mutex.SetPolicy.
type Controller struct {
	cfg    Config
	shards []*shardCtl

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
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
	c := &Controller{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	for i, m := range mutexes {
		if m.Observer() == nil {
			return nil, fmt.Errorf("adaptive: mutex %d has no observer (build the runtime with Observe)", i)
		}
		p := m.CurrentPolicy()
		if p != tle.PolicyHTMCondVar && p != tle.PolicySTMCondVarNoQ {
			return nil, fmt.Errorf("adaptive: mutex %d is on %s, not htm-cv or stm-cv-noq", i, p)
		}
		c.shards = append(c.shards, &shardCtl{
			mu:         m,
			dec:        NewDecider(p),
			prev:       m.Observer().Snapshot(),
			lastReason: "none",
		})
	}
	return c, nil
}

// Tick runs one sampling window over every shard and applies at most one
// policy move per shard. It returns the number of switches performed.
// Tests and deterministic drivers call it directly; Start calls it on the
// configured interval.
func (c *Controller) Tick() int {
	switched := 0
	for i, sc := range c.shards {
		cur := sc.mu.Observer().Snapshot()
		s := sampleOf(cur.Sub(sc.prev))
		sc.prev = cur
		dec := sc.dec.Step(s)
		if dec.Switched {
			if err := sc.mu.SetPolicy(dec.Target); err != nil {
				// New checked that the runtime runs both rungs: an error
				// here is a programming bug, surface it loudly.
				panic(fmt.Sprintf("adaptive: SetPolicy(shard %d, %s): %v", i, dec.Target, err))
			}
			switched++
		}
		sc.mtx.Lock()
		if dec.Switched {
			sc.switches++
			sc.lastReason = dec.Reason
		}
		if s.Starts > 0 {
			sc.window = s
		}
		sc.mtx.Unlock()
	}
	return switched
}

// Start launches the sampling loop. Stop halts it and waits.
func (c *Controller) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
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
			}
		}
	}()
}

// Stop halts the sampling loop started by Start and waits for it to exit.
// Safe to call multiple times and without a prior Start.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
	})
	if c.started.Load() {
		<-c.done
	}
}

// Status snapshots every shard's controller state.
func (c *Controller) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, sc := range c.shards {
		sc.mtx.Lock()
		out[i] = ShardStatus{
			Shard:      i,
			Policy:     sc.mu.CurrentPolicy(),
			Switches:   sc.switches,
			LastReason: sc.lastReason,
			Window:     sc.window,
		}
		sc.mtx.Unlock()
	}
	return out
}
