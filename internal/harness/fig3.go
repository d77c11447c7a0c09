package harness

import (
	"fmt"
	"time"

	"gotle/internal/htm"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/video"
	"gotle/internal/x265sim"
)

// Figures 3 and 4: x265 speedup over the single-thread pthread baseline,
// and HTM abort rates (Section VII.B). The paper sweeps worker threads for
// three input sizes (38 MB / 735 MB / 3810 MB video files); size here is
// (resolution × frame count), parameterised.

// VideoSize names one input scale.
type VideoSize struct {
	Name   string
	W, H   int
	Frames int
}

// Fig3Config parameterises the x265 sweep.
type Fig3Config struct {
	Sizes    []VideoSize
	Threads  []int
	Policies []tle.Policy
	Trials   int
	Seed     int64
	MemWords int
}

// fig4EventPPM is the HTM per-access transient-abort rate (×1e-6) of the
// Figure 4 abort-rate runs; Figure 3's timing runs keep the quiet default.
// Real TSX transactions see interrupt/TLB noise that a single-machine
// simulation otherwise lacks.
const fig4EventPPM = 2000

func (c Fig3Config) withDefaults() Fig3Config {
	if len(c.Sizes) == 0 {
		c.Sizes = []VideoSize{
			{"small", 96, 64, 4},
			{"medium", 160, 96, 6},
			{"large", 224, 128, 8},
		}
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if len(c.Policies) == 0 {
		c.Policies = tle.Policies
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 21
	}
	return c
}

// runX265 measures one cell; returns elapsed time and the stats delta.
func runX265(p tle.Policy, frames []*video.Frame, workers int, memWords int) (time.Duration, stats.Snapshot) {
	r := newPolicyRuntime(p, memWords)
	before := r.Engine().Snapshot()
	res, err := x265sim.Encode(r, frames, x265sim.Config{Workers: workers, FrameThreads: 3})
	if err != nil {
		panic(fmt.Sprintf("fig3 %s t=%d: %v", p, workers, err))
	}
	return res.Elapsed, r.Engine().Snapshot().Sub(before)
}

// Fig3 runs the sweep: one table per input size, cells are speedup vs the
// 1-thread pthread run (the paper's y-axis).
func Fig3(cfg Fig3Config) []*Table {
	cfg = cfg.withDefaults()
	var tables []*Table
	for _, size := range cfg.Sizes {
		frames := video.Generate(size.W, size.H, size.Frames, cfg.Seed)
		base := time.Duration(0)
		for trial := 0; trial < cfg.Trials; trial++ {
			d, _ := runX265(tle.PolicyPthread, frames, 1, cfg.MemWords)
			base += d
		}
		base /= time.Duration(cfg.Trials)
		t := &Table{
			Title:  fmt.Sprintf("Figure 3: x265 %s (%dx%d, %d frames) — speedup vs 1-thread pthread", size.Name, size.W, size.H, size.Frames),
			Header: []string{"threads"},
			Notes:  []string{fmt.Sprintf("baseline (pthread, 1 thread): %.3fs", base.Seconds())},
		}
		for _, p := range cfg.Policies {
			t.Header = append(t.Header, p.String())
		}
		for _, threads := range cfg.Threads {
			row := []string{fmt.Sprintf("%d", threads)}
			for _, p := range cfg.Policies {
				speedups := make([]float64, 0, cfg.Trials)
				for trial := 0; trial < cfg.Trials; trial++ {
					d, _ := runX265(p, frames, threads, cfg.MemWords)
					speedups = append(speedups, base.Seconds()/d.Seconds())
				}
				row = append(row, fmtTrials(speedups, 2))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig4 reports HTM abort behaviour for the x265 runs: abort rate by cause
// and the serial-fallback rate, per thread count.
func Fig4(cfg Fig3Config) *Table {
	cfg = cfg.withDefaults()
	size := cfg.Sizes[0]
	if len(cfg.Sizes) > 1 {
		size = cfg.Sizes[1] // the paper discusses the medium input
	}
	frames := video.Generate(size.W, size.H, size.Frames, cfg.Seed)
	t := &Table{
		Title: fmt.Sprintf("Figure 4: x265 %s — HTM abort rates (event noise %d ppm)", size.Name, fig4EventPPM),
		Header: []string{"threads", "starts", "abort%", "conflict%", "capacity%", "event%",
			"serial-fallback%"},
	}
	for _, threads := range cfg.Threads {
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{
			MemWords: cfg.MemWords,
			HTM:      htm.Config{EventAbortPerMillion: fig4EventPPM},
		})
		before := r.Engine().Snapshot()
		if _, err := x265sim.Encode(r, frames, x265sim.Config{Workers: threads, FrameThreads: 3}); err != nil {
			panic(err)
		}
		s := r.Engine().Snapshot().Sub(before)
		pct := func(n uint64) string {
			if s.Starts == 0 {
				return "0.00"
			}
			return fmt.Sprintf("%.2f", 100*float64(n)/float64(s.Starts))
		}
		t.AddRow(fmt.Sprintf("%d", threads),
			fmt.Sprintf("%d", s.Starts),
			fmt.Sprintf("%.2f", 100*s.AbortRate()),
			pct(s.Aborts[stats.Conflict]),
			pct(s.Aborts[stats.Capacity]),
			pct(s.Aborts[stats.Event]),
			fmt.Sprintf("%.2f", 100*s.SerialRate()))
	}
	return t
}

// TextX265 reproduces Section VII.B's in-text claim: HTM's peak advantage
// over pthreads (the paper reports 9.5% at 4 threads on the medium input).
func TextX265(cfg Fig3Config) *Table {
	cfg = cfg.withDefaults()
	size := cfg.Sizes[0]
	if len(cfg.Sizes) > 1 {
		size = cfg.Sizes[1]
	}
	frames := video.Generate(size.W, size.H, size.Frames, cfg.Seed)
	t := &Table{
		Title:  fmt.Sprintf("Section VII.B in-text: x265 %s — HTM vs pthread by thread count", size.Name),
		Header: []string{"threads", "pthread(s)", "htm-cv(s)", "htm advantage %"},
		Notes:  []string{"paper: peak HTM advantage 9.5% at 4 threads; HTM ≥ pthread almost everywhere"},
	}
	for _, threads := range cfg.Threads {
		pt, _ := runX265(tle.PolicyPthread, frames, threads, cfg.MemWords)
		ht, _ := runX265(tle.PolicyHTMCondVar, frames, threads, cfg.MemWords)
		adv := 100 * (pt.Seconds() - ht.Seconds()) / pt.Seconds()
		t.AddRow(fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.3f", pt.Seconds()),
			fmt.Sprintf("%.3f", ht.Seconds()),
			fmt.Sprintf("%+.1f", adv))
	}
	return t
}
