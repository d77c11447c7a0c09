package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"gotle/internal/htm"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/tmds"
)

// tm-sets: the paper's Figure 5 second mix (50 % lookup, 25 % insert, 25 %
// remove) on a list of 64 keys, a hash and a tree of 256, two threads inside
// tle.Mutex.Do, under the lock baseline and three elision policies. No
// server, log or replica runs, so a change to quiescence or the STM shows
// here at 0.3 us per operation instead of under 10-30 us of syscalls.

type tmSet interface {
	Insert(tx tm.Tx, key int64) bool
	Remove(tx tm.Tx, key int64) bool
	Contains(tx tm.Tx, key int64) bool
	Size(tx tm.Tx) int
}

var tmKeyRange = map[string]int64{"list": 64, "hash": 256, "tree": 256}

func buildTMSet(structure string, e *tm.Engine) tmSet {
	switch structure {
	case "list":
		return tmds.NewList(e)
	case "hash":
		return tmds.NewHash(e, 256)
	default:
		return tmds.NewTree(e)
	}
}

// tmCell is one structure under one policy.
type tmCell struct {
	structure, policy string
	si, pi            int // indices into tmStructures, tmPolicies
	mu                *tle.Mutex
	set               tmSet
	initial           int
	added             int64 // successful inserts minus successful removes, all threads
	ops               int64

	thr      []float64 // per slice: ops/s
	cpu      []float64 // per slice: process CPU per operation, us
	p50, p99 []float64 // per slice: sampled critical-section latency, us
	traced   []bool    // per slice: whether spans were recorded
}

func (c *tmCell) name() string { return c.structure + "." + c.policy }
func (c *tmCell) elided() bool { return c.policy != "pthread" }

// tmBench is the built state: one runtime per policy, 12 cells.
type tmBench struct {
	rts   []*tle.Runtime
	cells []*tmCell
}

func (b *tmBench) close() {
	for _, rt := range b.rts {
		rt.Close()
	}
}

// buildTMBench builds the runtimes and structures and prefills each to 50 %.
func buildTMBench(seed int64) (*tmBench, error) {
	b := &tmBench{}
	rng := rand.New(rand.NewSource(seed ^ 0x7135))
	for pi, pname := range tmPolicies {
		policy, err := tle.ParsePolicy(pname)
		if err != nil {
			return nil, err
		}
		rt := tle.New(policy, tle.Config{MemWords: 1 << 18, HTM: htm.Config{EventAbortPerMillion: 5}})
		b.rts = append(b.rts, rt)
		th := rt.NewThread()
		for si, sname := range tmStructures {
			c := &tmCell{structure: sname, policy: pname, si: si, pi: pi,
				mu: rt.NewMutex(sname), set: buildTMSet(sname, rt.Engine())}
			for c.initial < int(tmKeyRange[sname]/2) {
				k, ins := rng.Int63n(tmKeyRange[sname]), false
				if err := c.mu.Do(th, func(tx tm.Tx) error { ins = c.set.Insert(tx, k); return nil }); err != nil {
					return nil, err
				}
				if ins {
					c.initial++
				}
			}
			b.cells = append(b.cells, c)
		}
		th.Release()
	}
	// Slice order: per structure, the lock baseline and then its three
	// elided cells, so each speed-up divides slices a fraction of a second
	// apart.
	sort.SliceStable(b.cells, func(i, j int) bool { return b.cells[i].si < b.cells[j].si })
	return b, nil
}

// A tmOp packs the key (low 8 bits) and the mix roll (bits 8-9: 0,1 lookup,
// 2 insert, 3 remove).
type tmOp uint16

// tmWorker is one benchmark thread: its op streams, its tm.Thread in every
// runtime, and the one closure it passes to Mutex.Do (built once, so an
// operation allocates nothing).
type tmWorker struct {
	id      int
	ops     [][]tmOp // per structure
	pos     []int
	threads []*tm.Thread // per policy
	body    func(tm.Tx) error

	// The operation in flight, read by body.
	set  tmSet
	op   tmOp
	took bool // the insert or remove changed the set

	samples []uint32 // sampled latencies of the current slice, ns
	spans   []tmSpan // traced slices
	spanCap int      // spans still wanted from the current slice
	traceOn bool
	base    time.Time
}

// tmSpan is one sampled operation: req covers fetching the op and the
// critical section; do covers Mutex.Do alone.
type tmSpan struct {
	cell              int
	reqStart, doStart int64
	end               int64
}

// tmStreams generates thread id's op stream for each structure, and
// tmStreamHash fingerprints all threads' streams.
func tmStreams(id int, seed int64) [][]tmOp {
	rng := rand.New(rand.NewSource(seed*tmThreads + int64(id)))
	var streams [][]tmOp
	for _, s := range tmStructures {
		ops := make([]tmOp, tmStreamOps)
		for i := range ops {
			ops[i] = tmOp(rng.Int63n(tmKeyRange[s])) | tmOp(rng.Intn(4))<<8
		}
		streams = append(streams, ops)
	}
	return streams
}

func tmStreamHash(workers []*tmWorker) uint64 {
	h := fnvOffset
	for _, w := range workers {
		for _, ops := range w.ops {
			for _, o := range ops {
				h = fnvMix(h, uint64(o))
			}
		}
	}
	return h
}

func newTMWorker(id int, ops [][]tmOp, b *tmBench, base time.Time) *tmWorker {
	w := &tmWorker{id: id, ops: ops, pos: make([]int, len(tmStructures)), base: base,
		samples: make([]uint32, 0, 1<<17)}
	for _, rt := range b.rts {
		w.threads = append(w.threads, rt.NewThread())
	}
	w.body = func(tx tm.Tx) error {
		key := int64(w.op & 0xff)
		w.took = false
		switch w.op >> 8 {
		case 2:
			w.took = w.set.Insert(tx, key)
		case 3:
			w.took = w.set.Remove(tx, key)
		default:
			w.set.Contains(tx, key)
		}
		if w.op>>8 != 3 || !w.took {
			// Listing 2's discipline: nothing was privatised, so the commit
			// may skip quiescence where the policy honours it (stm-cv-noq).
			tx.NoQuiesce()
		}
		return nil
	}
	return w
}

// runSlice hammers cell c until the run clock reaches endNs and returns the
// operations done, the time taken and the net number of keys added.
func (w *tmWorker) runSlice(c *tmCell, ci int, endNs int64) (ops, elapsedNs, added int64, err error) {
	th, stream, pos := w.threads[c.pi], w.ops[c.si], w.pos[c.si]
	w.set = c.set
	w.samples = w.samples[:0]
	start := int64(time.Since(w.base))
	now := start
	for now < endNs {
		// tmSampleEvery-1 untimed operations, then a timed one.
		for i := 0; i < tmSampleEvery; i++ {
			var reqStart, doStart int64
			timed := i == tmSampleEvery-1
			if timed && w.traceOn {
				reqStart = int64(time.Since(w.base))
			}
			w.op = stream[pos]
			if pos++; pos == len(stream) {
				pos = 0
			}
			if timed {
				doStart = int64(time.Since(w.base))
			}
			if err = c.mu.Do(th, w.body); err != nil {
				return
			}
			if w.took && w.op>>8 == 2 {
				added++
			} else if w.took {
				added--
			}
			if timed {
				now = int64(time.Since(w.base))
				if len(w.samples) < cap(w.samples) {
					w.samples = append(w.samples, clampU32(now-doStart))
				}
				if w.traceOn && w.spanCap > 0 {
					w.spanCap--
					w.spans = append(w.spans, tmSpan{cell: ci, reqStart: reqStart, doStart: doStart, end: now})
				}
			}
		}
		ops += tmSampleEvery
	}
	w.pos[c.si] = pos
	return ops, now - start, added, nil
}

func runTMSets(seed int64, seconds int, trace bool, outDir string) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	runtime.GOMAXPROCS(tmThreads)
	runtime.LockOSThread() // the host probes read this thread's CPU clock
	probe := newHostProbe()

	base := time.Now()
	var streams [tmThreads][][]tmOp
	for i := range streams {
		streams[i] = tmStreams(i, seed)
	}
	var bench *tmBench
	var workers []*tmWorker
	defer func() {
		if bench != nil {
			bench.close()
		}
	}()

	// Each sampled request makes two span lines; spread the file's budget
	// evenly over the traced slices (every other round) and the threads.
	nCells := len(tmStructures) * len(tmPolicies)
	rounds := max(1, int(int64(seconds)*1e9/(int64(nCells)*tmSliceNs)))
	spansPerSlice := maxSpanLines / 2 / tmThreads / (nCells * (rounds + 1) / 2)

	var merged []uint32 // scratch for a slice's latency samples
	type sliceOut struct {
		ops, elapsed, added int64
		err                 error
	}
	runSlice := func(ci int, durNs int64, traced bool) error {
		c := bench.cells[ci]
		end := int64(time.Since(base)) + durNs
		outs := make([]sliceOut, tmThreads)
		cpu0 := processCPUNs()
		var wg sync.WaitGroup
		for i, w := range workers {
			w.traceOn, w.spanCap = traced, spansPerSlice
			wg.Add(1)
			go func(i int, w *tmWorker) {
				defer wg.Done()
				o := &outs[i]
				o.ops, o.elapsed, o.added, o.err = w.runSlice(c, ci, end)
			}(i, w)
		}
		wg.Wait()
		cpu := processCPUNs() - cpu0
		thr, ops := 0.0, int64(0)
		for i := range outs {
			if outs[i].err != nil {
				return fmt.Errorf("%s: %w", c.name(), outs[i].err)
			}
			ops += outs[i].ops
			c.added += outs[i].added
			thr += float64(outs[i].ops) / (float64(outs[i].elapsed) / 1e9)
		}
		c.ops += ops
		merged = append(append(merged[:0], workers[0].samples...), workers[1].samples...)
		slices.Sort(merged)
		lat := merged
		c.thr = append(c.thr, thr)
		c.cpu = append(c.cpu, ratio(float64(cpu)/1e3, float64(ops)))
		c.p50 = append(c.p50, quantileU32(lat, 0.50)/1e3)
		c.p99 = append(c.p99, quantileU32(lat, 0.99)/1e3)
		c.traced = append(c.traced, traced)
		return nil
	}

	// Set-up, several times over: build the runtimes and structures and fill
	// them (3-5 ms, nearly all of it allocating and faulting in 34 MB of
	// simulated heaps and tables), give each worker its threads, and warm up
	// with one short pass over the cells. The last one is kept for the run.
	var setups, builds []float64
	for i := 0; i < setupRepeats; i++ {
		if bench != nil {
			bench.close()
		}
		runtime.GC() // off the clock: keeps the heap, and so rss_mb, from depending on when the collector last ran
		t0 := time.Now()
		b, err := buildTMBench(seed)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		bench, workers = b, nil
		for id := range streams {
			workers = append(workers, newTMWorker(id, streams[id], bench, base))
		}
		for ci := range bench.cells {
			if err := runSlice(ci, tmWarmSliceNs, false); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["stack.setup_s"] = median(builds)
	res.notef("set-ups: build and fill %.5f s, with threads and warm-up %.4f s", builds, setups)
	for _, c := range bench.cells {
		c.thr, c.cpu, c.p50, c.p99, c.traced, c.ops = nil, nil, nil, nil, nil, 0
	}

	snap0 := tmSnapshot(bench)
	cpu0 := processCPUNs()
	for r := 0; r < rounds; r++ {
		for ci := range bench.cells {
			// In a traced run every other round records spans, so the two
			// kinds of slice interleave.
			if err := runSlice(ci, tmSliceNs, trace && r%2 == 0); err != nil {
				return nil, err
			}
		}
		probe.run()
	}
	cpu := processCPUNs() - cpu0
	snap := tmSnapshot(bench).Sub(snap0)

	// Each cell must hold exactly what its operations left in it.
	var totalOps int64
	var thrE, p50E, p99E, speedups, latRatios, cpuRatios []float64
	for _, c := range bench.cells {
		totalOps += c.ops
		size := 0
		if err := c.mu.Do(workers[0].threads[c.pi], func(tx tm.Tx) error { size = c.set.Size(tx); return nil }); err != nil {
			return nil, err
		}
		res.attempted++
		if want := c.initial + int(c.added); size != want {
			res.failed++
			res.notef("%s: holds %d keys, its operations left %d", c.name(), size, want)
		}
		res.metrics["tmds."+c.name()+".ops_per_s"] = median(c.thr)
		if c.elided() {
			thrE, p50E, p99E = append(thrE, median(c.thr)), append(p50E, median(c.p50)), append(p99E, median(c.p99))
			lock := bench.cells[c.si*len(tmPolicies)] // the structure's pthread cell, run just before
			var thrRatios, p50Ratios, cpuPerOp []float64
			for i := range c.thr {
				thrRatios = append(thrRatios, ratio(c.thr[i], lock.thr[i]))
				p50Ratios = append(p50Ratios, ratio(c.p50[i], lock.p50[i]))
				cpuPerOp = append(cpuPerOp, ratio(c.cpu[i], lock.cpu[i]))
			}
			speedups, latRatios = append(speedups, median(thrRatios)), append(latRatios, median(p50Ratios))
			cpuRatios = append(cpuRatios, median(cpuPerOp))
		}
	}
	res.attempted += int(totalOps)
	// The paper's y-axis: each elided cell against its structure's lock cell
	// from the slice just before, geometric mean over the nine elided cells.
	res.metrics["speedup_vs_lock"] = geomean(speedups)
	res.metrics["lat_vs_lock"] = geomean(latRatios)
	res.metrics["cpu_vs_lock"] = geomean(cpuRatios)
	res.metrics["rss_mb"] = procPeakRSSMB([]int{syscall.Getpid()})
	res.metrics["stack.ops_per_s"] = geomean(thrE)
	res.metrics["stack.lat_p50_us"] = geomean(p50E)
	res.metrics["stack.lat_p99_us"] = geomean(p99E)
	res.metrics["stack.cpu_us_per_op"] = ratio(float64(cpu)/1e3, float64(totalOps))
	res.notef("%d rounds of %d cells x %d ms, %d threads", rounds, len(bench.cells), tmSliceNs/1e6, tmThreads)
	res.notef("elided cells: ops_per_s=%.0f lat_p50_us=%.3f lat_p99_us=%.3f (geometric means of per-cell medians); cpu_us_per_op=%.4f",
		geomean(thrE), geomean(p50E), geomean(p99E), res.metrics["stack.cpu_us_per_op"])
	res.notef("host.calib_alu_ns=%.3f host.calib_mem_ns=%.2f (median over %d rounds)",
		median(probe.aluNs), median(probe.memNs), len(probe.aluNs))
	if !trace {
		return res, nil
	}

	tmCounterMetrics(res.metrics, snap)
	coreLayerProbes(res.metrics)
	res.metrics["loadgen.stream_hash"] = float64(tmStreamHash(workers) & (1<<48 - 1))
	res.metrics["host.calib_alu_ns"] = median(probe.aluNs)
	res.metrics["host.calib_mem_ns"] = median(probe.memNs)
	var on, off []float64
	for _, c := range bench.cells {
		for i, t := range c.traced {
			if t {
				on = append(on, c.p50[i])
			} else {
				off = append(off, c.p50[i])
			}
		}
	}
	res.metrics["trace.overhead_ratio"] = ratio(median(on), median(off))
	tw := newTraceWriter()
	for _, w := range workers {
		for i, s := range w.spans {
			id := uint64(w.id)<<56 | uint64(i+1)
			cell := bench.cells[s.cell].name()
			tw.add(span{ID: id, Name: "req", Start: s.reqStart, End: s.end, Attr: cell})
			tw.add(span{ID: id, Name: "tle.do", Parent: "req", Start: s.doStart, End: s.end, Attr: cell})
		}
	}
	return res, tw.write(traceFile(outDir, tmSetsName))
}

// tmSnapshot sums the engine counters of the elided runtimes.
func tmSnapshot(b *tmBench) stats.Snapshot {
	var sum stats.Snapshot
	for i, rt := range b.rts {
		if tmPolicies[i] == "pthread" {
			continue
		}
		s := rt.Engine().Snapshot()
		sum.Starts += s.Starts
		sum.Commits += s.Commits
		sum.ReadOnly += s.ReadOnly
		sum.SerialRuns += s.SerialRuns
		sum.Quiesces += s.Quiesces
		sum.QuiesceTime += s.QuiesceTime
		sum.NoQuiesce += s.NoQuiesce
		sum.SharedGrace += s.SharedGrace
		sum.ScansAvoided += s.ScansAvoided
		sum.ReadsDeduped += s.ReadsDeduped
		for c := range s.Aborts {
			sum.Aborts[c] += s.Aborts[c]
		}
	}
	return sum
}

// tmCounterMetrics turns an engine-counter delta into the tm, stm and epoch
// ratio metrics.
func tmCounterMetrics(m map[string]float64, s stats.Snapshot) {
	starts, commits := float64(s.Starts), float64(s.Commits)
	m["tm.attempts_per_commit"] = ratio(starts, commits)
	m["tm.serial_ratio"] = ratio(float64(s.SerialRuns), commits)
	m["tm.abort_conflict_ratio"] = ratio(float64(s.Aborts[stats.Conflict]+s.Aborts[stats.Validation]+s.Aborts[stats.Locked]), starts)
	m["tm.abort_capacity_ratio"] = ratio(float64(s.Aborts[stats.Capacity]), starts)
	m["tm.abort_event_ratio"] = ratio(float64(s.Aborts[stats.Event]), starts)
	m["stm.reads_deduped_per_commit"] = ratio(float64(s.ReadsDeduped), commits)
	m["epoch.quiesces_per_commit"] = ratio(float64(s.Quiesces), commits)
	m["epoch.quiesce_ns_per_commit"] = ratio(float64(s.QuiesceTime.Nanoseconds()), commits)
	m["epoch.shared_grace_ratio"] = ratio(float64(s.SharedGrace), float64(s.Quiesces+s.SharedGrace))
	m["epoch.noquiesce_ratio"] = ratio(float64(s.NoQuiesce), commits)
}
