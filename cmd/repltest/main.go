// Command repltest sweeps replication convergence rounds over the real
// tleserved + loadgen binaries (internal/harness.RunRepl): one primary
// streaming its per-shard commit log to N followers, loadgen mutating
// the primary and stale-reading the followers, seeded link chaos on the
// replication links, then quiesce and byte-identical shard dumps across
// every node. With -kill-follower, follower 0 is SIGKILLed mid-stream
// and must resume from its own WAL cursor.
//
// Examples:
//
//	repltest -runs 1 -followers 2 -ops 20000            # make repl-smoke
//	repltest -runs 6 -seed 1 -kill-follower -v          # make repl-chaos
//
// Output ends with benchstat-compatible lines carrying follower apply
// throughput and the worst steady-state lag observed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gotle/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repltest: ")
	var (
		runs      = flag.Int("runs", 1, "seeds to sweep (seed, seed+1, ...)")
		seed      = flag.Int64("seed", 1, "base seed")
		servedB   = flag.String("served", "", "prebuilt tleserved binary (default: build one)")
		loadgenB  = flag.String("loadgen", "", "prebuilt loadgen binary (default: build one)")
		followers = flag.Int("followers", 2, "follower replicas per round")
		conns     = flag.Int("conns", 8, "loadgen connections")
		depth     = flag.Int("depth", 4, "pipelined depth per connection")
		keyspace  = flag.Int("keyspace", 64, "distinct keys (keep well under -capacity)")
		ops       = flag.Int("ops", 20000, "loadgen ops against the primary per round")
		replPct   = flag.Int("replica-get-pct", 40, "share of gets served as stale follower reads")
		chaos     = flag.Bool("chaos", true, "inject seeded link faults (delay/sever/corrupt) on the replication links")
		kill      = flag.Bool("kill-follower", false, "SIGKILL follower 0 mid-stream and restart it from its WAL")
		keep      = flag.Bool("keep", false, "keep per-seed work directories")
		verbose   = flag.Bool("v", false, "stream child process output")
	)
	flag.Parse()

	served, loadgen := *servedB, *loadgenB
	if served == "" || loadgen == "" {
		buildDir, err := os.MkdirTemp("", "repltest-bin-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(buildDir)
		fmt.Println("building tleserved + loadgen...")
		s, l, err := harness.BuildCrashBinaries(buildDir)
		if err != nil {
			log.Fatal(err)
		}
		if served == "" {
			served = s
		}
		if loadgen == "" {
			loadgen = l
		}
	}

	failures := 0
	var results []harness.ReplResult
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		workDir, err := os.MkdirTemp("", fmt.Sprintf("repltest-seed%d-", s))
		if err != nil {
			log.Fatal(err)
		}
		cfg := harness.ReplConfig{
			ServedBin:     served,
			LoadgenBin:    loadgen,
			WorkDir:       workDir,
			Seed:          s,
			Followers:     *followers,
			Conns:         *conns,
			Depth:         *depth,
			Keyspace:      *keyspace,
			Ops:           *ops,
			ReplicaGetPct: *replPct,
			Chaos:         *chaos,
			KillFollower:  *kill,
		}
		if *verbose {
			cfg.Log = os.Stderr
		}
		res := harness.RunRepl(cfg)
		fmt.Printf("repl %d/%d: %v\n", i+1, *runs, res)
		if res.Err != nil {
			failures++
			fmt.Printf("  work dir kept for replay: %s\n", workDir)
			fmt.Printf("  replay: repltest -runs 1 -seed %d -v\n", s)
			continue // always keep a failing run's evidence
		}
		results = append(results, res)
		if !*keep {
			os.RemoveAll(workDir)
		} else {
			fmt.Printf("  kept: %s\n", workDir)
		}
	}

	// Benchstat-compatible trailer (one line per passing round) so `make
	// repl-smoke` can fold follower apply throughput and steady-state lag
	// into the BENCH json trajectory.
	for _, res := range results {
		fmt.Printf("BenchmarkRepl/followers=%d/chaos=%v %d %.0f ns/op %.0f applies/sec %d max-lag-records %d reconnects\n",
			res.Followers, *chaos, res.Applied,
			float64(res.Elapsed.Nanoseconds())/float64(max(res.Applied, 1)),
			res.ApplyPerSec, res.MaxLag, res.Reconnects)
	}
	if failures > 0 {
		log.Fatalf("%d/%d replication rounds FAILED", failures, *runs)
	}
	fmt.Printf("all %d replication rounds passed: every follower converged byte-for-byte\n", *runs)
}
