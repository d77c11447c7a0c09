// Command loadgen drives a running tleserved instance with a closed-loop
// pipelined workload: -conns client connections, each keeping -depth
// requests in flight, drawing keys/ops/values from internal/workload.
//
// With -check, every get/set/delete is recorded into a Wing-Gong
// linearizability history (internal/linearize) keyed per key: Invoke
// before the request is written, Complete after its response is read.
// Requests the server sheds with "SERVER_ERROR busy" are rejected at
// admission — before any TLE critical section runs — so they provably
// did not take effect and are left un-Completed (History() drops them).
//
// With -replica, a share of gets (-replica-get-pct) are redirected to
// follower replicas as synchronous reads on a dedicated connection per
// worker. Follower reads may be stale, so -check then verifies the
// combined history against StaleKVModel: primary ops stay strictly
// linearizable, follower reads must be prefix-consistent (each worker's
// view of a key only moves forward through its version history).
//
// Output ends with a benchstat-compatible line:
//
//	BenchmarkServe/conns=16/depth=8/mix=g80s20d0 100000 10936 ns/op ...
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"gotle/internal/histo"
	"gotle/internal/linearize"
	"gotle/internal/server/client"
	"gotle/internal/workload"
)

type options struct {
	addr         string
	conns        int
	depth        int
	ops          int
	keyspace     int
	skew         float64
	valSizes     []int
	mix          workload.Mix
	seed         int64
	check        bool
	historyOut   string
	historyIn    string
	tolerateDisc bool
	presweep     bool
	replicas     []string
	replGetPct   int
}

// pending is one in-flight request's bookkeeping, queued FIFO per
// connection (the server answers in order).
type pending struct {
	kind  workload.OpKind
	key   string
	id    int // linearize handle, -1 when unchecked
	start time.Time
}

// vhash fingerprints a value for the linearizability history. The KV model
// treats values as opaque strings, so recording a 64-bit FNV-1a digest in
// place of the value itself is equivalent as long as every recording site
// (set inputs, get outputs, presweep reads, saved histories) uses the same
// convention — and it spares -check a copy of every multi-KiB payload per
// recorded op, which at 2 KiB values is most of the checker's cost.
func vhash(b []byte) string {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return strconv.FormatUint(h, 16)
}

// workerResult aggregates one connection's run.
type workerResult struct {
	lat          histo.Histogram
	completed    int
	shed         int
	protoErrs    int
	replicaGets  int
	disconnected bool
	err          error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var o options
	var valsize string
	flag.StringVar(&o.addr, "addr", "127.0.0.1:11222", "tleserved address")
	flag.IntVar(&o.conns, "conns", 16, "client connections")
	flag.IntVar(&o.depth, "depth", 8, "pipelined requests in flight per connection")
	flag.IntVar(&o.ops, "ops", 100000, "total operations across all connections")
	flag.IntVar(&o.keyspace, "keyspace", 1024, "distinct keys")
	flag.Float64Var(&o.skew, "skew", 0, "Zipf skew parameter (>1 enables skewed keys)")
	flag.StringVar(&valsize, "valsize", "64", "comma-separated candidate value sizes")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.BoolVar(&o.check, "check", false, "record and verify per-key linearizability")
	flag.StringVar(&o.historyOut, "history-out", "", "write the recorded history (completed + pending ops) to this file")
	flag.StringVar(&o.historyIn, "history-in", "", "load a prior phase's history and check the merged whole")
	flag.BoolVar(&o.tolerateDisc, "tolerate-disconnect", false, "treat a mid-run server death as expected: in-flight ops become pending, exit 0")
	flag.BoolVar(&o.presweep, "presweep", false, "with -check: read every key once before the load, pinning the post-recovery state (needs -history-in — only the prior phase's history can explain recovered values)")
	replica := flag.String("replica", "", "comma-separated follower addresses; worker w reads from replica w%%n")
	flag.IntVar(&o.replGetPct, "replica-get-pct", 50, "percentage of gets redirected to a follower (with -replica)")
	set := flag.Int("set", 20, "percentage of sets")
	del := flag.Int("del", 0, "percentage of deletes")
	incr := flag.Int("incr", 0, "percentage of incrs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the load phase to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	o.mix = workload.Mix{SetPct: *set, DelPct: *del, IncrPct: *incr}
	if err := o.mix.Validate(); err != nil {
		log.Fatal(err)
	}
	if o.check && o.mix.IncrPct > 0 {
		// The per-key KV model covers get/set/delete only; fold incrs
		// into gets rather than silently mis-modelling them.
		log.Printf("warning: -check does not model incr; folding %d%% incrs into gets", o.mix.IncrPct)
		o.mix.IncrPct = 0
	}
	for _, s := range strings.Split(valsize, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -valsize entry %q", s)
		}
		o.valSizes = append(o.valSizes, n)
	}
	if o.conns < 1 || o.depth < 1 || o.ops < 1 {
		log.Fatal("-conns, -depth and -ops must be positive")
	}
	if *replica != "" {
		for _, a := range strings.Split(*replica, ",") {
			if a = strings.TrimSpace(a); a != "" {
				o.replicas = append(o.replicas, a)
			}
		}
	}
	if o.replGetPct < 0 || o.replGetPct > 100 {
		log.Fatal("-replica-get-pct must be in [0,100]")
	}

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	var rec *linearize.Recorder
	if o.check {
		rec = linearize.NewRecorder()
	}
	evBefore, err := serverCounter(o.addr, "evictions")
	if err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}
	if o.presweep && rec != nil {
		n, err := presweep(o, rec)
		if err != nil {
			return fmt.Errorf("presweep: %w", err)
		}
		fmt.Printf("presweep: read %d keys\n", n)
	}

	results := make([]workerResult, o.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.conns; w++ {
		quota := o.ops / o.conns
		if w < o.ops%o.conns {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			results[w] = runWorker(o, w, quota, rec)
		}(w, quota)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total workerResult
	for i := range results {
		if results[i].err != nil {
			return fmt.Errorf("conn %d: %w", i, results[i].err)
		}
		total.completed += results[i].completed
		total.shed += results[i].shed
		total.protoErrs += results[i].protoErrs
		total.replicaGets += results[i].replicaGets
		total.disconnected = total.disconnected || results[i].disconnected
		total.lat.Merge(&results[i].lat)
	}

	thr := float64(total.completed) / elapsed.Seconds()
	fmt.Printf("conns=%d depth=%d mix=%s keyspace=%d skew=%g valsizes=%v\n",
		o.conns, o.depth, o.mix, o.keyspace, o.skew, o.valSizes)
	fmt.Printf("completed=%d shed=%d protocol_errors=%d elapsed=%v\n",
		total.completed, total.shed, total.protoErrs, elapsed.Round(time.Millisecond))
	if len(o.replicas) > 0 {
		fmt.Printf("replica: %d follower reads across %d replicas\n",
			total.replicaGets, len(o.replicas))
		for _, a := range o.replicas {
			if st, err := serverStats(a); err == nil {
				fmt.Printf("replica %s: applied=%s lag=%s reconnects=%s\n",
					a, st["repl_applied_records"], st["repl_lag_records"], st["repl_reconnects"])
			}
		}
	}
	fmt.Printf("throughput=%.0f ops/sec  latency p50=%v p99=%v max=%v\n",
		thr, total.lat.Quantile(0.50), total.lat.Quantile(0.99), total.lat.Max())

	if o.check {
		// Completed ops plus in-flight ops the kill orphaned (pending).
		// Shed ops were Discarded at response time; in a run that joined
		// cleanly nothing is pending.
		hist := append(rec.History(), rec.Pending()...)
		if o.historyIn != "" {
			prior, err := loadHistory(o.historyIn)
			if err != nil {
				return err
			}
			fmt.Printf("history: merged %d prior ops from %s\n", len(prior), o.historyIn)
			hist = mergeHistories(prior, hist)
		}
		if o.historyOut != "" {
			if err := saveHistory(o.historyOut, hist); err != nil {
				return err
			}
			fmt.Printf("history: wrote %d ops to %s\n", len(hist), o.historyOut)
		}
		if total.disconnected {
			// The server died under us (expected with -tolerate-disconnect):
			// this phase's observations are incomplete without the
			// post-restart phase, so defer the verdict to the run that
			// loads this history back in.
			fmt.Printf("check: DEFERRED — server disconnected mid-run; "+
				"%d ops (incl. pending) saved for the post-restart phase\n", len(hist))
			return nil
		}
		evAfter, err := serverCounter(o.addr, "evictions")
		if err != nil {
			return err
		}
		if evAfter > evBefore {
			fmt.Printf("check: SKIPPED — server evicted %d items during the run; "+
				"the no-eviction KV model would report false violations "+
				"(lower -keyspace or raise server -capacity)\n", evAfter-evBefore)
		} else {
			// Follower reads are stale-but-prefix-consistent, so a run that
			// touched replicas needs the relaxed model; without replicas the
			// history contains no fgets and the strict model applies.
			var model linearize.Model = linearize.KVModel{}
			modelName := "linearizable"
			if len(o.replicas) > 0 {
				model = linearize.StaleKVModel{}
				modelName = "prefix-consistent (stale follower reads)"
			}
			res := linearize.Check(model, hist)
			if !res.OK {
				fmt.Printf("check: FAILED\n%s\n", res.Explanation)
				for _, op := range res.Violation {
					fmt.Printf("  %+v\n", op)
				}
				return fmt.Errorf("history of %d ops is not linearizable", len(hist))
			}
			fmt.Printf("check: OK — %d ops %s per key (%d shed ops excluded)\n",
				res.Checked, modelName, total.shed)
		}
	} else if total.disconnected {
		fmt.Printf("disconnected mid-run (tolerated); completed=%d\n", total.completed)
		return nil
	}
	if total.protoErrs > 0 {
		return fmt.Errorf("%d protocol errors", total.protoErrs)
	}

	// Surface the server's adaptive state (if the controller is running):
	// per-shard policy plus the total number of policy switches the run
	// provoked.
	fsyncRate := -1.0 // >= 0 only when the server is running with -wal
	if st, err := serverStats(o.addr); err == nil {
		switches := 0
		var shards []string
		for i := 0; ; i++ {
			pol, ok := st[fmt.Sprintf("shard%d_policy", i)]
			if !ok {
				break
			}
			n, _ := strconv.Atoi(st[fmt.Sprintf("shard%d_switches", i)])
			switches += n
			shards = append(shards, fmt.Sprintf("%d:%s(%d)", i, pol, n))
		}
		if len(shards) > 0 {
			fmt.Printf("adaptive: %d policy switches [shard:policy(switches)] %s\n",
				switches, strings.Join(shards, " "))
		}
		// How much shared grace the run got, and how many freed blocks still
		// wait out a grace period (0 once the server's connections have
		// closed).
		if _, ok := st["quiesces"]; ok {
			fmt.Printf("grace: quiesces=%s shared_grace=%s scans_avoided=%s reclaim_parked=%s\n",
				st["quiesces"], st["shared_grace"], st["scans_avoided"], st["reclaim_parked"])
		}
		// Why transactions abort, since the server started: conflict and
		// capacity aborts over attempts, serial runs over commits (the
		// benchmark's tm.* ratios).
		if _, ok := st["tm_starts"]; ok {
			num := func(k string) float64 { v, _ := strconv.ParseFloat(st[k], 64); return v }
			starts, commits := max(num("tm_starts"), 1), max(num("tm_commits"), 1)
			fmt.Printf("tm: starts=%s commits=%s conflict_ratio=%.4f capacity_ratio=%.4f serial_ratio=%.4f\n",
				st["tm_starts"], st["tm_commits"], num("tm_conflict_aborts")/starts,
				num("tm_capacity_aborts")/starts, num("tm_serial_runs")/commits)
		}
		// Durability counters (present only when the server runs with -wal).
		if appendsStr, ok := st["wal_appends"]; ok {
			appends, _ := strconv.ParseFloat(appendsStr, 64)
			fsyncs, _ := strconv.ParseUint(st["wal_fsyncs"], 10, 64)
			perFsync := 0.0
			if fsyncs > 0 {
				perFsync = appends / float64(fsyncs)
			}
			fsyncRate = float64(fsyncs) / elapsed.Seconds()
			fmt.Printf("wal: appends=%s fsyncs=%d bytes=%s (%.0f fsyncs/sec, %.1f appends/fsync)\n",
				appendsStr, fsyncs, st["wal_bytes"], fsyncRate, perFsync)
		}
	}

	// Benchstat-compatible trailer.
	name := fmt.Sprintf("BenchmarkServe/conns=%d/depth=%d/mix=%s", o.conns, o.depth, o.mix)
	walMetric := ""
	if fsyncRate >= 0 {
		walMetric = fmt.Sprintf(" %.0f fsyncs/sec", fsyncRate)
	}
	fmt.Printf("%s %d %.0f ns/op %.0f ops/sec %d p50-ns %d p99-ns %d shed-ops%s\n",
		name, total.completed,
		float64(elapsed.Nanoseconds())/float64(max(total.completed, 1)),
		thr, total.lat.Quantile(0.50).Nanoseconds(), total.lat.Quantile(0.99).Nanoseconds(),
		total.shed, walMetric)
	return nil
}

// runWorker drives one connection closed-loop: keep up to o.depth
// requests in flight, receive in FIFO order.
func runWorker(o options, w, quota int, rec *linearize.Recorder) (res workerResult) {
	c, err := client.Dial(o.addr)
	if err != nil {
		if o.tolerateDisc {
			// The server died before this worker connected: nothing was
			// sent, nothing is in doubt.
			res.disconnected = true
			return
		}
		res.err = err
		return
	}
	defer c.Close()
	// Follower reads run synchronously on a dedicated connection so their
	// real-time order against the worker's primary ops is exactly what the
	// recorder captures — pipelining them would blur the call/return window
	// the stale model reasons about.
	var rc *client.Client
	var rrng *rand.Rand
	if len(o.replicas) > 0 && o.replGetPct > 0 {
		rc, err = client.Dial(o.replicas[w%len(o.replicas)])
		if err != nil {
			if o.tolerateDisc {
				res.disconnected = true
				return
			}
			res.err = fmt.Errorf("replica dial: %w", err)
			return
		}
		defer rc.Close()
		rrng = rand.New(rand.NewSource(o.seed<<16 ^ int64(w)))
	}
	gen := workload.New(workload.Config{
		Keyspace:   o.keyspace,
		Skew:       o.skew,
		ValueSizes: o.valSizes,
		Seed:       o.seed,
	}, w)

	var inflight []pending
	sent := 0
	recvOne := func() error {
		p := inflight[0]
		inflight = inflight[1:]
		rsp, err := c.Recv()
		if err != nil {
			return err
		}
		res.lat.Record(time.Since(p.start))
		if rsp.Busy() {
			// Shed at admission: provably never reached a critical
			// section, so discard the invocation outright (leaving it
			// would make it a pending "maybe ran" op after a crash).
			res.shed++
			if p.id >= 0 {
				rec.Discard(p.id)
			}
			return nil
		}
		if rsp.Err != "" {
			res.protoErrs++
			return nil
		}
		res.completed++
		if p.id < 0 {
			return nil
		}
		switch p.kind {
		case workload.OpGet:
			if len(rsp.Items) > 0 {
				rec.Complete(p.id, vhash(rsp.Items[0].Value), true)
			} else {
				rec.Complete(p.id, "", false)
			}
		case workload.OpSet:
			rec.Complete(p.id, nil, true)
		case workload.OpDelete:
			rec.Complete(p.id, nil, rsp.Status == "DELETED")
		}
		return nil
	}

	for sent < quota || len(inflight) > 0 {
		for sent < quota && len(inflight) < o.depth {
			p := pending{kind: gen.Op(o.mix), key: gen.Key(), id: -1, start: time.Now()}
			if p.kind == workload.OpGet && rc != nil && rrng.Intn(100) < o.replGetPct {
				id := -1
				if rec != nil {
					id = rec.Invoke(w, "fget", p.key, nil)
				}
				it, ok, err := rc.Get(p.key)
				if err != nil {
					if o.tolerateDisc {
						res.disconnected = true
						return
					}
					res.err = fmt.Errorf("replica get: %w", err)
					return
				}
				res.lat.Record(time.Since(p.start))
				res.completed++
				res.replicaGets++
				if id >= 0 {
					if ok {
						rec.Complete(id, vhash(it.Value), true)
					} else {
						rec.Complete(id, "", false)
					}
				}
				sent++
				continue
			}
			var err error
			switch p.kind {
			case workload.OpGet:
				if rec != nil {
					p.id = rec.Invoke(w, "get", p.key, nil)
				}
				err = c.SendGet(false, p.key)
			case workload.OpSet:
				v := gen.Value()
				if rec != nil {
					p.id = rec.Invoke(w, "set", p.key, vhash(v))
				}
				err = c.SendSet(p.key, v, 0)
			case workload.OpDelete:
				if rec != nil {
					p.id = rec.Invoke(w, "delete", p.key, nil)
				}
				err = c.SendDelete(p.key)
			case workload.OpIncr:
				err = c.SendIncr(p.key, 1, false)
			}
			if err != nil {
				if o.tolerateDisc {
					// The request may or may not have reached the server
					// before the connection died: leave it un-Completed so
					// it surfaces as a pending op.
					res.disconnected = true
					return
				}
				res.err = err
				return
			}
			inflight = append(inflight, p)
			sent++
		}
		// The window is full (or the quota exhausted): drain half of it —
		// all of it on the final lap — before topping it back up. Recv
		// flushes queued requests before reading, so draining in batches
		// means each write syscall carries several requests; the old
		// send-one-recv-one alternation paid a syscall per op, and on a
		// box where client and server share cores, the client's syscalls
		// come straight out of the server's budget.
		drain := len(inflight)
		if sent < quota && drain > (o.depth+1)/2 {
			drain = (o.depth + 1) / 2
		}
		for i := 0; i < drain; i++ {
			if err := recvOne(); err != nil {
				if o.tolerateDisc {
					// Every op still in flight becomes pending: the kill may
					// have landed before, between, or after their commits.
					res.disconnected = true
					return
				}
				res.err = err
				return
			}
		}
	}
	return
}

// presweep reads every key in the keyspace once on a dedicated
// connection, recording the gets. Run directly after a crash recovery it
// pins the recovered state into the history: an acked-then-lost write
// shows up as a miss (or stale value) here even if the main load never
// touches that key again.
func presweep(o options, rec *linearize.Recorder) (int, error) {
	c, err := client.Dial(o.addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for i := 0; i < o.keyspace; i++ {
		key := fmt.Sprintf("key:%d", i) // workload's default key prefix
		id := rec.Invoke(o.conns, "get", key, nil)
		it, ok, err := c.Get(key)
		if err != nil {
			return i, err
		}
		if ok {
			rec.Complete(id, vhash(it.Value), true)
		} else {
			rec.Complete(id, "", false)
		}
	}
	return o.keyspace, nil
}

// serverStats fetches the stats map over a throwaway connection.
func serverStats(addr string) (map[string]string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// serverCounter fetches one numeric stats field.
func serverCounter(addr, field string) (uint64, error) {
	st, err := serverStats(addr)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(st[field], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stats field %q = %q: %w", field, st[field], err)
	}
	return v, nil
}
