// Package adaptive is an online per-lock policy controller: it samples each
// elided mutex's abort/serial/quiesce counters over sliding windows and
// walks the mutex along the paper's policy ladder
//
//	htm-cv → stm-cv-noq → stm-cv → pthread
//
// with hysteresis. The paper's conclusion is that no single runtime wins
// every workload — Figure 5's crossover points depend on section size,
// conflict rate and privatization behaviour, so the right configuration is
// per-workload ("pick the right runtime"). This package turns that offline
// advice into an online mechanism: every shard of a served data structure
// carries its own mutex, its own counters, and its own position on the
// ladder, and the controller reacts to what each shard actually observes.
//
// Demotion triggers:
//
//   - a capacity-abort storm at htm-cv steps down to stm-cv-noq and bars
//     re-entry for a holdoff. The noq rung is the right landing spot even
//     for the large writers that overflow HTM write sets: their frees no
//     longer force a synchronous grace period — the engine defers them to
//     the batched background reclaimer — so honoring NoQuiesce is where
//     big freeing transactions are cheap. (Before deferred reclamation
//     this jumped straight to stm-cv on the theory that freeing commits
//     quiesce anyway; that theory no longer holds.) If the shard still
//     struggles there, the conflict/serial triggers walk it further down;
//   - a high conflict or serial-fallback rate steps down one rung — the
//     serial rate is the "lemming effect" signal that elision is not
//     paying for itself.
//
// Promotion requires a streak of consecutive quiet windows (hysteresis),
// and a shard that was capacity-demoted is barred from re-entering htm-cv
// for a holdoff period, because the capacity behaviour that evicted it is
// a property of the workload, not of the moment. The holdoff doubles on
// every capacity demotion that strikes shortly after a re-promotion:
// a storm that returns the instant the shard climbs back proves the
// workload has not changed, so the shard parks on the stm rungs for
// geometrically longer spells instead of round-tripping.
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

// Ladder is the paper's policy ladder, fastest-but-touchiest first.
var Ladder = []tle.Policy{
	tle.PolicyHTMCondVar,
	tle.PolicySTMCondVarNoQ,
	tle.PolicySTMCondVar,
	tle.PolicyPthread,
}

// Config parameterises the controller. The zero value selects the
// defaults noted per field.
type Config struct {
	// Interval is the sampling window length for Controller.Start
	// (default 50ms). Tick ignores it.
	Interval time.Duration
	// MinStarts: windows with fewer critical-section attempts are treated
	// as idle and decide nothing (default 64).
	MinStarts uint64
}

// The Decider's thresholds (rates are over a window's starts).
const (
	capacityDemote  = 0.10 // capacity-abort rate above which htm-cv is abandoned
	conflictDemote  = 0.50 // conflict-class abort rate above which a shard steps down a rung
	serialDemote    = 0.20 // serial-fallback rate above which it does
	conflictPromote = 0.05 // rates below which a window counts toward the promotion streak
	serialPromote   = 0.02
	promoteStreak   = 3 // consecutive quiet windows that earn one rung up
	switchCooldown  = 2 // windows a shard holds still after any switch: the hysteresis floor
	// htmHoldoff is the number of windows a capacity-demoted shard is barred
	// from htm-cv, doubling on every recurrence. It is much longer than the
	// cooldown because a write set that overflows the HTM budget is a
	// property of the data served, not a passing spike: the first probe back
	// almost always re-storms.
	htmHoldoff = 64
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.MinStarts == 0 {
		c.MinStarts = 64
	}
	return c
}

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
	Reason   string // why, when Switched; diagnostic otherwise
}

// Decider is the pure per-shard policy automaton: feed it one Sample per
// window, get at most one ladder move back. It holds no clocks and spawns
// nothing, so tests drive it with synthetic traces.
type Decider struct {
	cfg      Config
	ladder   []tle.Policy
	idx      int
	cooldown int
	streak   int
	htmHold  int
	// penalty raises the promotion-streak requirement after every switch
	// and decays with sustained calm: a workload that keeps forcing
	// switches earns an ever-longer probation, so periodic storms park
	// the shard instead of making it round-trip each period.
	penalty int
	decay   int
	// capEsc counts consecutive capacity demotions that struck soon after
	// (re-)entering htm-cv; each one doubles the next holdoff. A storm
	// that returns the moment the shard climbs back is a workload
	// property, not a transient, and the shard should park on stm rungs
	// for geometrically longer spells. htmAge (windows survived at htm-cv
	// since the last promotion) is what distinguishes "storm returned
	// instantly" from "ran fine for a long time, then the workload shifted".
	capEsc int
	htmAge int
}

// NewDecider builds a decider positioned at current on ladder. If current
// is not a rung, the decider starts at the most conservative rung
// (callers are expected to move the mutex there).
func NewDecider(cfg Config, ladder []tle.Policy, current tle.Policy) *Decider {
	cfg = cfg.withDefaults()
	d := &Decider{cfg: cfg, ladder: ladder, idx: len(ladder) - 1}
	for i, p := range ladder {
		if p == current {
			d.idx = i
			break
		}
	}
	return d
}

// Current returns the decider's rung.
func (d *Decider) Current() tle.Policy { return d.ladder[d.idx] }

// Step consumes one window and returns at most one ladder move — the
// "no more than one switch per window" contract the oscillation tests pin.
func (d *Decider) Step(s Sample) Decision {
	if d.htmHold > 0 {
		d.htmHold--
	}
	if d.Current() == tle.PolicyHTMCondVar {
		d.htmAge++
	}
	if d.cooldown > 0 {
		d.cooldown--
		return Decision{Target: d.Current(), Reason: "cooldown"}
	}
	if s.Starts < d.cfg.MinStarts {
		// An idle window proves nothing: neither demote nor count it
		// toward a promotion streak.
		return Decision{Target: d.Current(), Reason: "idle"}
	}
	// Demotions first: getting out of a pathological regime beats
	// chasing a promotion.
	if d.Current() == tle.PolicyHTMCondVar && s.Capacity > capacityDemote {
		// A long clean spell at htm-cv means this storm is news, not a
		// rerun: restart the escalation from the base holdoff.
		if d.htmAge > 4*htmHoldoff {
			d.capEsc = 0
		}
		if d.capEsc < 6 {
			d.capEsc++
		}
		d.idx = min(d.idx+1, len(d.ladder)-1)
		d.switched()
		d.htmHold = htmHoldoff << (d.capEsc - 1)
		return Decision{Target: d.Current(), Switched: true,
			Reason: fmt.Sprintf("capacity storm (%.0f%% of attempts)", s.Capacity*100)}
	}
	if d.idx < len(d.ladder)-1 && (s.Conflict > conflictDemote || s.Serial > serialDemote) {
		d.idx++
		d.switched()
		why := "conflict rate"
		if s.Serial > serialDemote {
			why = "serial fallback rate"
		}
		return Decision{Target: d.Current(), Switched: true,
			Reason: fmt.Sprintf("%s high (conflict %.0f%%, serial %.0f%%)", why, s.Conflict*100, s.Serial*100)}
	}
	d.decayPenalty()
	// Promotion: a streak of quiet windows earns one rung up; the
	// required streak grows with the shard's recent switch history.
	if s.Conflict < conflictPromote && s.Serial < serialPromote {
		d.streak++
		if d.streak >= promoteStreak+d.penalty && d.idx > 0 {
			if d.ladder[d.idx-1] == tle.PolicyHTMCondVar && d.htmHold > 0 {
				return Decision{Target: d.Current(), Reason: "htm holdoff"}
			}
			d.idx--
			d.switched()
			if d.Current() == tle.PolicyHTMCondVar {
				d.htmAge = 0
			}
			return Decision{Target: d.Current(), Switched: true,
				Reason: fmt.Sprintf("quiet for %d windows", promoteStreak+d.penalty)}
		}
		return Decision{Target: d.Current(), Reason: "quiet"}
	}
	d.streak = 0
	return Decision{Target: d.Current(), Reason: "steady"}
}

// switched resets the hysteresis state after a ladder move and escalates
// the promotion probation.
func (d *Decider) switched() {
	d.cooldown = switchCooldown
	d.streak = 0
	d.decay = 0
	if d.penalty < 4*promoteStreak {
		d.penalty += 2
	}
}

// decayPenalty forgives one unit of probation per 8 switch-free windows.
func (d *Decider) decayPenalty() {
	if d.penalty == 0 {
		return
	}
	d.decay++
	if d.decay >= 8 {
		d.decay = 0
		d.penalty--
	}
}

// ShardStatus is one shard's controller state, as exposed over the
// server's stats command.
type ShardStatus struct {
	Shard      int
	Policy     tle.Policy
	Switches   uint64
	LastReason string
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
	r      *tle.Runtime
	cfg    Config
	shards []*shardCtl

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  atomic.Bool
}

// New builds a controller over mutexes. Every mutex must carry an
// Observer (runtime built with Config.Observe); ladder rungs the runtime
// cannot execute are dropped. Mutexes whose current policy is not a rung
// are moved to the most conservative rung immediately, so the automaton's
// state and the mutex agree from the first window.
func New(r *tle.Runtime, mutexes []*tle.Mutex, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	var ladder []tle.Policy
	for _, p := range Ladder {
		if r.Supports(p) {
			ladder = append(ladder, p)
		}
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("adaptive: runtime supports no ladder rung")
	}
	c := &Controller{
		r:    r,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i, m := range mutexes {
		if m.Observer() == nil {
			return nil, fmt.Errorf("adaptive: mutex %d has no observer (build the runtime with Observe)", i)
		}
		dec := NewDecider(cfg, ladder, m.CurrentPolicy())
		if dec.Current() != m.CurrentPolicy() {
			if err := m.SetPolicy(dec.Current()); err != nil {
				return nil, fmt.Errorf("adaptive: aligning mutex %d: %w", i, err)
			}
		}
		c.shards = append(c.shards, &shardCtl{
			mu:   m,
			dec:  dec,
			prev: m.Observer().Snapshot(),
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
				// Unsupported rungs were filtered at construction; an
				// error here is a programming bug, surface it loudly.
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
