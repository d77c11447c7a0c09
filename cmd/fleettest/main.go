// Command fleettest sweeps black-box rounds over the real tleserved +
// loadgen binaries, one seed per round, in one of two modes:
//
//	fleettest crash   kill-9 crash consistency (internal/harness.RunCrash):
//	                  start the server with -wal, load it and stop it with
//	                  SIGTERM (its WAL compacts), restart it, load it,
//	                  SIGKILL it at a seeded random point, restart from the
//	                  log, and require the combined history to linearize per
//	                  key — acked writes must survive, unacked writes may go
//	                  either way.
//	fleettest repl    replication convergence (internal/harness.RunRepl): one
//	                  primary streaming its WAL to N followers, loadgen
//	                  mutating the primary and stale-reading the followers,
//	                  seeded link chaos, then quiesce and byte-identical
//	                  shard dumps across every node. With -kill-follower,
//	                  follower 0 is SIGKILLed mid-stream and must resume
//	                  from its own WAL cursor.
//
// Examples:
//
//	fleettest crash -runs 3 -seed 1                    # make crash-smoke
//	fleettest repl -runs 1 -followers 2 -ops 20000     # make repl-smoke
//	fleettest repl -runs 6 -seed 1 -kill-follower -v   # make repl-chaos
//
// Exit status is non-zero if any seed fails; the failing seed and its work
// directory are printed for replay. A repl sweep ends with benchstat-
// compatible lines carrying follower apply throughput and the worst
// steady-state lag observed.
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
	log.SetPrefix("fleettest: ")
	if len(os.Args) < 2 || (os.Args[1] != "crash" && os.Args[1] != "repl") {
		log.Fatal("usage: fleettest {crash|repl} [flags]")
	}
	mode := os.Args[1]
	crash := mode == "crash"
	fs := flag.NewFlagSet("fleettest "+mode, flag.ExitOnError)
	defaultRuns := 1
	if crash {
		defaultRuns = 3
	}
	var (
		runs     = fs.Int("runs", defaultRuns, "seeds to sweep (seed, seed+1, ...)")
		seed     = fs.Int64("seed", 1, "base seed")
		servedB  = fs.String("served", "", "prebuilt tleserved binary (default: build one)")
		loadgenB = fs.String("loadgen", "", "prebuilt loadgen binary (default: build one)")
		conns    = fs.Int("conns", 8, "loadgen connections")
		depth    = fs.Int("depth", 4, "pipelined depth per connection")
		keyspace = fs.Int("keyspace", 0, "distinct keys, well under the servers' capacity (default 48 crash, 64 repl)")
		keep     = fs.Bool("keep", false, "keep per-seed work directories")
		verbose  = fs.Bool("v", false, "stream child process output")

		cc harness.CrashConfig
		rc harness.ReplConfig
	)
	if crash {
		fs.IntVar(&cc.Phase1Ops, "ops", 5_000_000, "phase-1 op budget (the kill truncates it)")
		fs.IntVar(&cc.Phase2Ops, "phase2-ops", 4000, "post-restart verification ops")
		fs.DurationVar(&cc.KillMin, "kill-min", 300*time.Millisecond, "earliest kill point")
		fs.DurationVar(&cc.KillMax, "kill-max", 800*time.Millisecond, "latest kill point")
	} else {
		fs.IntVar(&rc.Followers, "followers", 2, "follower replicas per round")
		fs.IntVar(&rc.Ops, "ops", 20000, "loadgen ops against the primary per round")
		fs.IntVar(&rc.ReplicaGetPct, "replica-get-pct", 40, "share of gets served as stale follower reads")
		fs.BoolVar(&rc.Chaos, "chaos", true, "inject seeded link faults (delay/sever/corrupt) on the replication links")
		fs.BoolVar(&rc.KillFollower, "kill-follower", false, "SIGKILL follower 0 mid-stream and restart it from its WAL")
	}
	fs.Parse(os.Args[2:])

	fleet := harness.FleetConfig{ServedBin: *servedB, LoadgenBin: *loadgenB, Conns: *conns, Depth: *depth, Keyspace: *keyspace}
	if fleet.ServedBin == "" || fleet.LoadgenBin == "" {
		buildDir, err := os.MkdirTemp("", "fleettest-bin-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(buildDir)
		fmt.Println("building tleserved + loadgen...")
		s, l, err := harness.BuildCrashBinaries(buildDir)
		if err != nil {
			log.Fatal(err)
		}
		if fleet.ServedBin == "" {
			fleet.ServedBin = s
		}
		if fleet.LoadgenBin == "" {
			fleet.LoadgenBin = l
		}
	}
	if *verbose {
		fleet.Log = os.Stderr
	}

	failures := 0
	var passed []harness.ReplResult
	for i := 0; i < *runs; i++ {
		fleet.Seed = *seed + int64(i)
		workDir, err := os.MkdirTemp("", fmt.Sprintf("fleettest-%s-seed%d-", mode, fleet.Seed))
		if err != nil {
			log.Fatal(err)
		}
		fleet.WorkDir = workDir
		var res fmt.Stringer
		if crash {
			cc.FleetConfig = fleet
			r := harness.RunCrash(cc)
			res, err = r, r.Err
		} else {
			rc.FleetConfig = fleet
			r := harness.RunRepl(rc)
			if res, err = r, r.Err; err == nil {
				passed = append(passed, r)
			}
		}
		fmt.Printf("%s %d/%d: %v\n", mode, i+1, *runs, res)
		switch {
		case err != nil: // always keep a failing run's evidence
			failures++
			fmt.Printf("  work dir kept for replay: %s\n", workDir)
			fmt.Printf("  replay: fleettest %s -runs 1 -seed %d -v\n", mode, fleet.Seed)
		case *keep:
			fmt.Printf("  kept: %s\n", workDir)
		default:
			os.RemoveAll(workDir)
		}
	}

	// Benchstat-compatible trailer, one line per passing replication round.
	for _, r := range passed {
		fmt.Printf("BenchmarkRepl/followers=%d/chaos=%v %d %.0f ns/op %.0f applies/sec %d max-lag-records %d reconnects\n",
			r.Followers, rc.Chaos, r.Applied,
			float64(r.Elapsed.Nanoseconds())/float64(max(r.Applied, 1)),
			r.ApplyPerSec, r.MaxLag, r.Reconnects)
	}
	if failures > 0 {
		log.Fatalf("%d/%d %s rounds FAILED", failures, *runs, mode)
	}
	if crash {
		fmt.Printf("all %d crash rounds passed: every acked write survived its kill-9\n", *runs)
	} else {
		fmt.Printf("all %d replication rounds passed: every follower converged byte-for-byte\n", *runs)
	}
}
