// Command benchmark is this repository's benchmark driver: one invocation
// runs one workload for a fixed time and prints one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "tm-sets | serve-read | serve-write | serve-durable")
		seed    = flag.Int64("seed", 1, "seed for keys, ops, value sizes and the pre-seeded WAL")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run: in-process stack, spans, per-layer metrics")
		bin     = flag.String("tleserved", ".bench_build/tleserved", "the built cmd/tleserved")
		build   = flag.String("build-dir", ".bench_build", "scratch directory for WALs and run state")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files")
	)
	flag.Parse()
	if *seconds < 2 {
		fatal(fmt.Errorf("-seconds %d: need at least 2 (one open- and one closed-loop slice)", *seconds))
	}
	fmt.Fprintf(os.Stderr, "run: workload=%s seed=%d seconds=%d trace=%d %s GOMAXPROCS=%d NumCPU=%d\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res *result
	var err error
	w := findWorkload(*name)
	switch {
	case *name == tmSetsName:
		res, err = runTMSets(*seed, *seconds, *trace == 1, *outDir)
	case w == nil:
		err = fmt.Errorf("unknown workload %q", *name)
	case *trace == 1:
		res, err = runServeTraced(w, *seed, *seconds, *build, *outDir)
	default:
		res, err = runServe(w, *seed, *seconds, *bin, *build)
	}
	if err != nil {
		fatal(err)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	out := render(res, *trace == 1)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// render lays a result out as the contract's JSON object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one. A layer
// the workload does not run reports 0.
func render(res *result, traced bool) output {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: res.metrics[d.name], Unit: d.unit}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// traceFile is where a traced run of workload writes its spans.
func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, fmt.Sprintf(traceFileFmt, workload))
}
