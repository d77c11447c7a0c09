package harness

import (
	"fmt"
	"time"

	"gotle/internal/htm"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/video"
	"gotle/internal/x265sim"
)

// Ablation experiments for the design decisions called out in DESIGN.md §4.

// AblationRetry sweeps the HTM retry budget before serial fallback. The
// paper (Section VII.A) conjectures that "finely tuning fallback strategies
// would offer even better performance"; this table quantifies the
// trade-off on the x265 workload.
func AblationRetry(cfg Fig3Config, budgets []int) *Table {
	cfg = cfg.withDefaults()
	if len(budgets) == 0 {
		budgets = []int{1, 2, 4, 8}
	}
	size := cfg.Sizes[0]
	frames := video.Generate(size.W, size.H, size.Frames, cfg.Seed)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: HTM retry budget before serial fallback (x265 %s, 4 workers)", size.Name),
		Header: []string{"retries", "time(s)", "abort%", "serial-fallback%"},
		Notes:  []string{"engine default: 2 retries, 3 attempts (libitm makes 2, DESIGN.md §6.10); a capacity abort goes serial at once"},
	}
	for _, budget := range budgets {
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{
			MemWords:   cfg.MemWords,
			MaxRetries: budget,
			HTM:        htm.Config{EventAbortPerMillion: 5},
		})
		before := r.Engine().Snapshot()
		res, err := x265sim.Encode(r, frames, x265sim.Config{Workers: 4, FrameThreads: 3})
		if err != nil {
			panic(err)
		}
		s := r.Engine().Snapshot().Sub(before)
		t.AddRow(fmt.Sprintf("%d", budget),
			fmt.Sprintf("%.3f", res.Elapsed.Seconds()),
			fmt.Sprintf("%.2f", 100*s.AbortRate()),
			fmt.Sprintf("%.2f", 100*s.SerialRate()))
	}
	return t
}

// AblationStripe sweeps the STM orec stripe granularity: coarser stripes
// mean fewer orecs touched per transaction but more false conflicts.
// Measured on the Figure-5 list workload.
func AblationStripe(threads int, duration time.Duration, shifts []int) *Table {
	if len(shifts) == 0 {
		shifts = []int{0, 2, 4, 6}
	}
	if threads == 0 {
		threads = 4
	}
	if duration == 0 {
		duration = 50 * time.Millisecond
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: orec stripe granularity (list set, %d threads)", threads),
		Header: []string{"words/stripe", "ops/sec", "abort%"},
	}
	for _, shift := range shifts {
		cfg := tm.Config{
			Mode: tm.ModeSTM, MemWords: 1 << 20,
			Quiesce: tm.QuiesceAll, StripeShift: shift,
		}
		v := QuiesceVariant{Name: fmt.Sprintf("stripe%d", shift), Cfg: cfg}
		st := fig5Structures()[0] // list
		mix := fig5Mixes()[0]
		ops, s := runFig5Cell(v, st, mix, threads, Fig5Config{
			Duration: duration, Trials: 1, MemWords: 1 << 20, Threads: []int{threads},
		})
		t.AddRow(fmt.Sprintf("%d", 1<<shift), fmt.Sprintf("%.0f", ops),
			fmt.Sprintf("%.2f", 100*s.AbortRate()))
	}
	return t
}

// AblationQuiesceWriters compares quiesce-after-every-transaction (GCC
// post-2016) with quiesce-after-writers-only (pre-2016) and no quiescence,
// on the lookup-heavy Figure-5 mix where read-only commits dominate.
func AblationQuiesceWriters(threads int, duration time.Duration) *Table {
	if threads == 0 {
		threads = 4
	}
	if duration == 0 {
		duration = 50 * time.Millisecond
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: quiescence scope (hash set, lookup-heavy, %d threads)", threads),
		Header: []string{"policy", "ops/sec"},
		Notes:  []string{"writers-only does not support proxy privatization (Listing 1)"},
	}
	variants := []QuiesceVariant{
		{"all", tm.Config{Mode: tm.ModeSTM, MemWords: 1 << 20, Quiesce: tm.QuiesceAll}},
		{"writers-only", tm.Config{Mode: tm.ModeSTM, MemWords: 1 << 20, Quiesce: tm.QuiesceWriters}},
		{"none", tm.Config{Mode: tm.ModeSTM, MemWords: 1 << 20, Quiesce: tm.QuiesceNone}},
	}
	st := fig5Structures()[1] // hash
	mix := fig5Mixes()[1]     // lookup-heavy
	for _, v := range variants {
		ops, _ := runFig5Cell(v, st, mix, threads, Fig5Config{
			Duration: duration, Trials: 1, MemWords: 1 << 20, Threads: []int{threads},
		})
		t.AddRow(v.Name, fmt.Sprintf("%.0f", ops))
	}
	return t
}
