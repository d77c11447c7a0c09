// Package workload generates deterministic cache workloads — key
// selection (uniform or Zipf-skewed), operation mix, and value sizing —
// for cmd/loadgen, which replays them over the wire against tleserved.
package workload

import (
	"fmt"
	"math/rand"
)

// OpKind is one workload operation.
type OpKind int

const (
	OpGet OpKind = iota
	OpSet
	OpDelete
	OpIncr
)

func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpIncr:
		return "incr"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Mix is an operation mix in percent; the remainder after sets, deletes
// and incrs are gets.
type Mix struct {
	SetPct, DelPct, IncrPct int
}

// Validate rejects mixes that do not sum within 100.
func (m Mix) Validate() error {
	if m.SetPct < 0 || m.DelPct < 0 || m.IncrPct < 0 {
		return fmt.Errorf("workload: negative mix percentage")
	}
	if m.SetPct+m.DelPct+m.IncrPct > 100 {
		return fmt.Errorf("workload: mix sums to %d%% > 100%%", m.SetPct+m.DelPct+m.IncrPct)
	}
	return nil
}

// GetPct is the remainder of the mix.
func (m Mix) GetPct() int { return 100 - m.SetPct - m.DelPct - m.IncrPct }

// String renders the mix compactly ("g75s20d5").
func (m Mix) String() string {
	s := fmt.Sprintf("g%ds%dd%d", m.GetPct(), m.SetPct, m.DelPct)
	if m.IncrPct > 0 {
		s += fmt.Sprintf("i%d", m.IncrPct)
	}
	return s
}

// Config parameterises a generator.
type Config struct {
	// Keyspace is the number of distinct keys (default 1024).
	Keyspace int
	// Skew is the Zipf s parameter; values > 1 skew key popularity,
	// anything else selects uniform keys.
	Skew float64
	// ValueSizes are candidate value lengths, picked uniformly per set
	// (default {64}). A mixed list with large entries makes a
	// capacity-heavy workload: large values overflow small HTM write
	// budgets, which is what drives the adaptive controller off htm-cv.
	ValueSizes []int
	// Seed drives the generator; each worker derives an independent
	// stream from Seed+worker.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Keyspace < 1 {
		c.Keyspace = 1024
	}
	if len(c.ValueSizes) == 0 {
		c.ValueSizes = []int{64}
	}
	return c
}

// Gen is one worker's deterministic workload stream.
type Gen struct {
	cfg    Config
	worker int
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    uint64
}

// New builds worker w's generator.
func New(cfg Config, w int) *Gen {
	cfg = cfg.withDefaults()
	g := &Gen{
		cfg:    cfg,
		worker: w,
		rng:    rand.New(rand.NewSource(cfg.Seed + int64(w))),
	}
	if cfg.Skew > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.Skew, 1, uint64(cfg.Keyspace-1))
	}
	return g
}

// Key draws the next key.
func (g *Gen) Key() string {
	var n uint64
	if g.zipf != nil {
		n = g.zipf.Uint64()
	} else {
		n = uint64(g.rng.Intn(g.cfg.Keyspace))
	}
	return fmt.Sprintf("key:%d", n)
}

// Op draws the next operation kind from mix.
func (g *Gen) Op(m Mix) OpKind {
	roll := g.rng.Intn(100)
	switch {
	case roll < m.SetPct:
		return OpSet
	case roll < m.SetPct+m.DelPct:
		return OpDelete
	case roll < m.SetPct+m.DelPct+m.IncrPct:
		return OpIncr
	default:
		return OpGet
	}
}

// Value builds the next set payload: a worker-and-sequence-unique prefix
// (so a linearizability checker can attribute every observed value to
// exactly one write) padded to one of the configured sizes.
func (g *Gen) Value() []byte {
	size := g.cfg.ValueSizes[g.rng.Intn(len(g.cfg.ValueSizes))]
	g.seq++
	v := fmt.Appendf(nil, "w%d.s%d.", g.worker, g.seq)
	if len(v) >= size {
		return v
	}
	pad := make([]byte, size)
	copy(pad, v)
	for i := len(v); i < size; i++ {
		pad[i] = 'x'
	}
	return pad
}
