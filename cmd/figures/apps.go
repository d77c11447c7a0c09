package main

import (
	"flag"
	"fmt"
	"log"

	"gotle/internal/htm"
	"gotle/internal/pbzip"
	"gotle/internal/tle"
	"gotle/internal/video"
	"gotle/internal/x265sim"
)

// appFlags are the flags the two application subcommands share.
func appFlags(fs *flag.FlagSet) (policy *string, workers *int, seed *int64, mem *int) {
	return fs.String("policy", "pthread", "execution policy: pthread|stm-spin|stm-cv|stm-cv-noq|htm-cv"),
		fs.Int("workers", 4, "worker threads (the paper sweeps 1-8)"),
		fs.Int64("seed", 1, "input generator seed"),
		fs.Int("mem", 1<<22, "simulated TM heap size in words")
}

func appRuntime(policyName string, memWords int) *tle.Runtime {
	policy, err := tle.ParsePolicy(policyName)
	if err != nil {
		log.Fatal(err)
	}
	return tle.New(policy, tle.Config{MemWords: memWords, HTM: htm.Config{EventAbortPerMillion: 5}})
}

// runPBZip2 is `figures pbzip2`: the PBZip2-analogue parallel compressor under
// one policy, reporting timing and transaction statistics.
func runPBZip2(args []string) {
	fs := flag.NewFlagSet("figures pbzip2", flag.ExitOnError)
	policy, workers, seed, mem := appFlags(fs)
	var (
		blockSize  = fs.Int("block", 900_000, "block size in bytes (paper: 100K/300K/900K)")
		fileSize   = fs.Int("size", 4<<20, "synthetic input size in bytes")
		trials     = fs.Int("trials", 1, "trials to run (times averaged)")
		decompress = fs.Bool("decompress", false, "measure decompression instead of compression")
	)
	fs.Parse(args)

	input := pbzip.SyntheticFile(*fileSize, *seed)
	cfg := pbzip.Config{Workers: *workers, BlockSize: *blockSize}
	op, run := "compress", pbzip.Compress
	if *decompress {
		res, err := pbzip.Compress(tle.New(tle.PolicyPthread, tle.Config{MemWords: *mem}), input, cfg)
		if err != nil {
			log.Fatalf("pre-compress: %v", err)
		}
		op, run, input = "decompress", pbzip.Decompress, res.Output
	}

	r := appRuntime(*policy, *mem)
	before := r.Engine().Snapshot()
	var totalSec float64
	var res pbzip.Result
	for trial := 0; trial < *trials; trial++ {
		var err error
		if res, err = run(r, input, cfg); err != nil {
			log.Fatal(err)
		}
		totalSec += res.Elapsed.Seconds()
	}
	fmt.Printf("policy=%s op=%s workers=%d block=%d input=%dB output=%dB blocks=%d\n",
		r.Policy(), op, *workers, *blockSize, *fileSize, len(res.Output), res.Blocks)
	fmt.Printf("time=%.3fs (avg of %d)\n", totalSec/float64(*trials), *trials)
	fmt.Printf("tm: %s\n", r.Engine().Snapshot().Sub(before))
}

// runX265 is `figures x265`: the wavefront video-encoder analogue under one
// policy, reporting timing, encoded cost and transaction statistics.
func runX265(args []string) {
	fs := flag.NewFlagSet("figures x265", flag.ExitOnError)
	policy, workers, seed, mem := appFlags(fs)
	var (
		frameThreads = fs.Int("frame-threads", 3, "concurrent frames (x265 default: 3)")
		width        = fs.Int("width", 160, "frame width")
		height       = fs.Int("height", 96, "frame height")
		frames       = fs.Int("frames", 6, "frame count")
	)
	fs.Parse(args)

	r := appRuntime(*policy, *mem)
	before := r.Engine().Snapshot()
	res, err := x265sim.Encode(r, video.Generate(*width, *height, *frames, *seed),
		x265sim.Config{Workers: *workers, FrameThreads: *frameThreads})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy=%s workers=%d frameThreads=%d video=%dx%dx%d\n",
		r.Policy(), *workers, *frameThreads, *width, *height, *frames)
	fmt.Printf("time=%.3fs totalCost=%d outputOrder=%v\n",
		res.Elapsed.Seconds(), res.TotalCost, res.OutputOrder)
	fmt.Printf("frameCosts=%v\n", res.FrameCosts)
	fmt.Printf("tm: %s\n", r.Engine().Snapshot().Sub(before))
}
