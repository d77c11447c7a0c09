// Command figures regenerates the data behind every figure and in-text
// statistic in the paper's evaluation (Section VII), plus the ablations
// listed in DESIGN.md. EXPERIMENTS.md records a reference run.
//
// Scale presets:
//
//	-scale quick  — seconds-scale smoke run (default)
//	-scale full   — larger inputs and more trials; minutes on one core
//
// Select experiments with -fig 2|3|4|5|text|ablate|condvar|kv|all.
//
// Three subcommands run one workload under chosen policies instead of a
// sweep (each lists its flags with -h):
//
//	figures pbzip2 -policy htm-cv -workers 4 -block 300000 -size 4194304
//	figures x265 -policy stm-cv-noq -workers 8 -frame-threads 3 -frames 8
//	figures chaos -policy stm-cv -faults heavy -runs 20   # see chaos.go
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gotle/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if len(os.Args) > 1 {
		if sub, ok := map[string]func([]string){"pbzip2": runPBZip2, "x265": runX265, "chaos": runChaos}[os.Args[1]]; ok {
			sub(os.Args[2:])
			return
		}
	}
	var (
		fig   = flag.String("fig", "all", "which experiment: 2|3|4|5|text|ablate|condvar|kv|all")
		scale = flag.String("scale", "quick", "quick|full")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	var f2 harness.Fig2Config
	var f3 harness.Fig3Config
	var f5 harness.Fig5Config
	switch *scale {
	case "quick":
		f2 = harness.Fig2Config{FileSize: 1 << 20, BlockSizes: []int{100_000, 300_000, 900_000},
			Threads: []int{1, 2, 4, 8}}
		f3 = harness.Fig3Config{
			Sizes: []harness.VideoSize{
				{Name: "small", W: 96, H: 64, Frames: 4},
				{Name: "medium", W: 160, H: 96, Frames: 6},
				{Name: "large", W: 224, H: 128, Frames: 8},
			},
			Threads: []int{1, 2, 4, 8},
		}
		f5 = harness.Fig5Config{Threads: []int{1, 2, 4, 8, 12}, Duration: 100 * time.Millisecond}
	case "full":
		f2 = harness.Fig2Config{FileSize: 16 << 20, BlockSizes: []int{100_000, 300_000, 900_000},
			Threads: []int{1, 2, 3, 4, 5, 6, 7, 8}, Trials: 3}
		f3 = harness.Fig3Config{
			Sizes: []harness.VideoSize{
				{Name: "small", W: 160, H: 96, Frames: 8},
				{Name: "medium", W: 224, H: 128, Frames: 12},
				{Name: "large", W: 320, H: 192, Frames: 16},
			},
			Threads: []int{1, 2, 3, 4, 5, 6, 7, 8}, Trials: 3,
		}
		f5 = harness.Fig5Config{Threads: []int{1, 2, 4, 6, 8, 10, 12},
			Duration: time.Second, Trials: 3}
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	emit := func(tables ...*harness.Table) {
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
	}
	run := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", name, time.Since(start).Seconds())
	}

	all := *fig == "all"
	if all || *fig == "2" {
		run("figure 2", func() { emit(harness.Fig2(f2)...) })
	}
	if all || *fig == "3" {
		run("figure 3", func() { emit(harness.Fig3(f3)...) })
	}
	if all || *fig == "4" {
		run("figure 4", func() { emit(harness.Fig4(f3)) })
	}
	if all || *fig == "5" {
		run("figure 5", func() { emit(harness.Fig5(f5)...) })
	}
	if all || *fig == "text" {
		run("in-text stats", func() {
			emit(harness.TextPBZip(f2), harness.TextX265(f3))
		})
	}
	if all || *fig == "ablate" {
		run("ablations", func() {
			emit(
				harness.AblationRetry(f3, nil),
				harness.AblationStripe(4, f5.Duration, nil),
				harness.AblationQuiesceWriters(4, f5.Duration),
			)
		})
	}
	if all || *fig == "kv" {
		run("kv cache", func() {
			ops := 2000
			if *scale == "full" {
				ops = 20000
			}
			emit(harness.KVThroughput(harness.KVConfig{Ops: ops}))
		})
	}
	if all || *fig == "condvar" {
		run("condvar churn", func() {
			handoffs := 2000
			if *scale == "full" {
				handoffs = 20000
			}
			emit(harness.CondChurn(harness.CondChurnConfig{Pairs: 2, Handoffs: handoffs}))
		})
	}
}
