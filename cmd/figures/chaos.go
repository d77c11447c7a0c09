package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"gotle/internal/chaos"
	"gotle/internal/harness"
	"gotle/internal/tle"
)

// runChaos is `figures chaos`, the chaos stress driver: a mixed kvstore +
// elided-counter workload under seeded fault injection, with the recorded
// histories checked for linearizability after each run.
//
// Each run prints one summary line (seed, injector fingerprint, fault
// counts, engine stats, verdict). On a violation the minimized
// counterexample history is printed and the process exits 1; re-running
// with the printed -seed replays the same fault decisions (exactly so for
// -threads 1, per-consultation faithfully otherwise — see internal/chaos).
//
//	figures chaos                                     # all policies, all mixes
//	figures chaos -policy stm-cv -faults heavy -runs 20
//	figures chaos -policy stm-cv -seed 42 -threads 1  # minimized replay
//	figures chaos -break-undo                         # prove the checker bites
func runChaos(args []string) {
	fs := flag.NewFlagSet("figures chaos", flag.ExitOnError)
	var (
		policyFlag = fs.String("policy", "all", `policy ("pthread", "stm-spin", "stm-cv", "stm-cv-noq", "htm-cv", or "all")`)
		faults     = fs.String("faults", "all", `fault mix ("none", "light", "heavy", or "all")`)
		threads    = fs.Int("threads", 4, "worker goroutines (1 = fully deterministic replay)")
		ops        = fs.Int("ops", 500, "operations per worker")
		keys       = fs.Int("keys", 16, "kvstore key-space size")
		seed       = fs.Int64("seed", 1, "base seed; run i uses seed+i")
		runs       = fs.Int("runs", 1, "seeds to sweep per (policy, mix)")
		breakUndo  = fs.Bool("break-undo", false, "arm the SkipUndo sabotage point (counter-only workload); the checker MUST report a violation")
		verbose    = fs.Bool("v", false, "print per-point fault counts")
	)
	fs.Parse(args)

	policies := tle.Policies
	if *policyFlag != "all" {
		p, err := tle.ParsePolicy(*policyFlag)
		if err != nil {
			log.Fatal(err)
		}
		policies = []tle.Policy{p}
	}
	mixes := harness.FaultMixes
	if *faults != "all" {
		if _, err := harness.MixRates(*faults); err != nil {
			log.Fatal(err)
		}
		mixes = []string{*faults}
	}

	violations := 0
	total := 0
	for _, policy := range policies {
		for _, mix := range mixes {
			rates, err := harness.MixRates(mix)
			if err != nil {
				log.Fatal(err)
			}
			if *breakUndo && rates[chaos.STMValidate] < 300_000 {
				// Skipped undos only do damage on rollback; guarantee
				// rollbacks happen regardless of the chosen mix.
				rates[chaos.STMValidate] = 300_000
			}
			for i := 0; i < *runs; i++ {
				cfg := harness.ChaosConfig{
					Policy:       policy,
					Threads:      *threads,
					OpsPerThread: *ops,
					Keys:         *keys,
					Seed:         *seed + int64(i),
					Rates:        rates,
					BreakUndo:    *breakUndo,
					CounterOnly:  *breakUndo,
				}
				res := harness.RunChaos(cfg)
				total++
				fmt.Printf("%-6s %v\n", mix, res)
				if *verbose && len(res.FaultCounts) > 0 {
					var parts []string
					for p := 0; p < chaos.NumPoints; p++ {
						if n := res.FaultCounts[chaos.Point(p)]; n > 0 {
							parts = append(parts, fmt.Sprintf("%v=%d", chaos.Point(p), n))
						}
					}
					fmt.Printf("       fired: %s\n", strings.Join(parts, " "))
				}
				if !res.OK() {
					violations++
					if res.Err != nil {
						fmt.Printf("       workload error: %v\n", res.Err)
					}
					if !res.KV.OK {
						fmt.Printf("       kv history:\n%s\n", indent(res.KV.String()))
					}
					if !res.Counter.OK {
						fmt.Printf("       counter history:\n%s\n", indent(res.Counter.String()))
					}
					sabotage := ""
					if *breakUndo {
						sabotage = " -break-undo"
					}
					fmt.Printf("       replay: figures chaos -policy %v -faults %s -threads %d -ops %d -keys %d -seed %d%s\n",
						policy, mix, *threads, *ops, *keys, cfg.Seed, sabotage)
				}
			}
		}
	}

	if *breakUndo {
		// Sabotage mode inverts the verdict: the harness only proves
		// anything if the checker catches the broken engine.
		if violations == 0 {
			log.Printf("SABOTAGE NOT CAUGHT: %d runs with SkipUndo armed all linearized", total)
			os.Exit(1)
		}
		fmt.Printf("sabotage caught in %d/%d runs: the checker has teeth\n", violations, total)
		return
	}
	if violations > 0 {
		log.Printf("%d/%d runs violated linearizability", violations, total)
		os.Exit(1)
	}
	fmt.Printf("%d runs, all linearizable\n", total)
}

func indent(s string) string {
	return "         " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n         ")
}
