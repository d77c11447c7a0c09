// Command tleserved serves the TLE kvstore over TCP, speaking the
// memcached text protocol, with an optional adaptive per-shard policy
// controller (internal/adaptive) moving each shard from htm-cv to
// stm-cv-noq on a capacity-abort storm and back once its holdoff expires.
// With the controller on, -policy must name one of those two rungs.
//
// Examples:
//
//	tleserved -addr 127.0.0.1:11222 -policy htm-cv -adaptive
//	tleserved -smoke            # start, self-test over loopback, exit
//
// The -htm-write-lines flag shrinks the simulated HTM's write-set budget;
// with the default 512 lines (32 KiB) no legal memcached value can
// overflow it, so reproducing the paper's capacity-pressure regime (and
// watching the controller demote a shard off htm-cv) requires e.g. 64.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/repl"
	"gotle/internal/server"
	"gotle/internal/server/client"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tleserved: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:11222", "listen address")
		policyName = flag.String("policy", "htm-cv", "initial policy: pthread|stm-spin|stm-cv|stm-cv-noq|htm-cv; with -adaptive, htm-cv or stm-cv-noq")
		adapt      = flag.Bool("adaptive", true, "enable the per-shard adaptive policy controller")
		interval   = flag.Duration("interval", 50*time.Millisecond, "adaptive sampling window")
		shards     = flag.Int("shards", 8, "kvstore shards")
		capacity   = flag.Int("capacity", 4096, "max items per shard (second-chance eviction past it)")
		memWords   = flag.Int("mem", 1<<23, "simulated TM heap size in words")
		maxConns   = flag.Int("conns", 48, "max concurrent connections")
		queueDepth = flag.Int("queue", 128, "per-connection execution queue depth")
		htmLines   = flag.Int("htm-write-lines", 0, "HTM write-set budget in cache lines (0 = default 512)")
		htmEvents  = flag.Int("htm-event-ppm", 5, "HTM spurious-event abort rate per million accesses (-1 disables)")
		walDir     = flag.String("wal", "", "redo-log directory: enables durability (recover on start, group-fsync per mutation)")
		fsyncWin   = flag.Duration("fsync-window", wal.DefaultFsyncWindow, "group-commit window: how long the WAL syncer accumulates appends before each fsync (0 = fsync eagerly)")
		deferRecl  = flag.Bool("deferred-reclaim", true, "free transactionally freed item memory on the freeing thread once a later commit finds its grace period over, instead of waiting for it on the commit path")
		stripeLog  = flag.Int("stripe-shift", 3, "STM orec granularity: 1<<n consecutive words share one ownership record (3 = 64-byte cache-line stripes; 0 = per-word)")
		replLn     = flag.String("repl-listen", "", "replication listen address: stream the per-shard commit log to follower replicas")
		follow     = flag.String("follow", "", "follower mode: subscribe to a primary's replication stream at this address and serve read-only")
		smoke      = flag.Bool("smoke", false, "start, run a loopback self-test, and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (stopped at shutdown)")
	)
	flag.Parse()
	if *replLn != "" && *follow != "" {
		log.Fatal("-repl-listen and -follow are mutually exclusive (a node is a primary or a follower, not both)")
	}
	if *smoke && *follow != "" {
		log.Fatal("-smoke exercises mutations, which a follower rejects; run it against a primary")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		pprof.StartCPUProfile(f)
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}

	policy, err := tle.ParsePolicy(*policyName)
	if err != nil {
		log.Fatal(err)
	}
	a := *addr
	if *smoke {
		a = "127.0.0.1:0" // never collide with a real deployment
	}

	// The controller's two rungs span both TM mechanisms, so the runtime
	// is hybrid whenever it runs.
	r := tle.New(policy, tle.Config{
		MemWords:        *memWords,
		Hybrid:          *adapt,
		Observe:         true,
		DeferredReclaim: *deferRecl,
		StripeShift:     *stripeLog,
		HTM: htm.Config{
			WriteCapacityLines:   *htmLines,
			EventAbortPerMillion: *htmEvents,
		},
	})
	store := kvstore.New(r, kvstore.Config{Shards: *shards, MaxItemsPerShard: *capacity})

	// Durability: recover first (replay runs one irrevocable section per
	// record while no WAL is attached, so nothing is re-logged), then attach
	// so every mutation from here on is redo-logged in commit order.
	var wlog *wal.Log
	if *walDir != "" {
		win := *fsyncWin
		if win <= 0 {
			win = -1 // flag 0 means "fsync eagerly"; the wal package uses negative for that
		}
		wlog, err = wal.Open(*walDir, store.ShardCount(), wal.Options{FsyncWindow: win})
		if err != nil {
			log.Fatal(err)
		}
		rth := r.NewThread()
		recovered, err := store.Recover(rth, wlog)
		rth.Release()
		if err != nil {
			log.Fatal(err)
		}
		if err := store.AttachWAL(wlog); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wal: recovered %d records from %s in %.1f ms\n", recovered, *walDir,
			float64(wlog.Stats().RecoverTime.Microseconds())/1e3)
	}

	// Replication. Cursor discipline is shared with the WAL: with one
	// attached, both the source's retained-history base and the follower's
	// applied cursors resume from the recovered tail, so a restarted node
	// rejoins the stream exactly where its durable state left off.
	walTail := func() []uint64 {
		if wlog == nil {
			return nil
		}
		t := make([]uint64, store.ShardCount())
		for i := range t {
			t[i] = wlog.LastSeq(i)
		}
		return t
	}
	var src *repl.Source
	var fw *repl.Follower
	if *replLn != "" {
		src = repl.NewSource(store.ShardCount(), walTail())
		store.AttachTap(src)
		raddr, err := src.Start(*replLn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("repl: streaming on %s\n", raddr)
	}
	if *follow != "" {
		fw = repl.NewFollower(r, store, *follow, walTail())
		fw.Start()
		fmt.Printf("repl: following %s\n", *follow)
	}

	var ctl *adaptive.Controller
	if *adapt {
		ctl, err = adaptive.New(r, store.ShardMutexes(), adaptive.Config{Interval: *interval})
		if err != nil {
			log.Fatal(err)
		}
		ctl.Start()
		defer ctl.Stop()
	}

	scfg := server.Config{
		Addr:       a,
		MaxConns:   *maxConns,
		QueueDepth: *queueDepth,
		Controller: ctl,
		WAL:        wlog,
		ReadOnly:   fw != nil,
	}
	switch {
	case src != nil:
		scfg.ExtraStats = src.StatLines
	case fw != nil:
		scfg.ExtraStats = fw.StatLines
	}
	srv := server.New(r, store, scfg)
	bound, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s (policy=%s adaptive=%v shards=%d)\n", bound, policy, *adapt, *shards)

	// closeWAL flushes and fsyncs the tail after the server has drained
	// (every acked mutation is already durable; this just tidies up).
	closeWAL := func() {
		if wlog == nil {
			return
		}
		if err := wlog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	// closeRepl runs after the server drains (no more publishes) and
	// before closeWAL: the source flushes its retained tail to connected
	// followers, a follower stops applying.
	closeRepl := func() {
		if src != nil {
			src.Close(5 * time.Second)
		}
		if fw != nil {
			fw.Stop()
		}
	}

	if *smoke {
		if err := runSmoke(bound.String()); err != nil {
			srv.Shutdown(2 * time.Second)
			closeRepl()
			closeWAL()
			log.Fatalf("SMOKE FAIL: %v", err)
		}
		srv.Shutdown(5 * time.Second)
		closeRepl()
		closeWAL()
		fmt.Println("SMOKE OK")
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	srv.Shutdown(10 * time.Second)
	closeRepl()
	closeWAL()
}

// runSmoke exercises every protocol verb over loopback.
func runSmoke(addr string) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Version(); err != nil {
		return fmt.Errorf("version: %w", err)
	}
	if err := c.Set("smoke", []byte("v1"), 3); err != nil {
		return err
	}
	it, ok, err := c.Get("smoke")
	if err != nil || !ok || string(it.Value) != "v1" || it.Flags != 3 {
		return fmt.Errorf("get after set = %+v,%v,%v", it, ok, err)
	}
	items, err := c.Gets("smoke")
	if err != nil || len(items) != 1 || items[0].CAS == 0 {
		return fmt.Errorf("gets = %+v,%v", items, err)
	}
	if rsp, err := c.Store("cas", "smoke", []byte("v2"), 0, items[0].CAS); err != nil || !rsp.Stored() {
		return fmt.Errorf("cas = %+v,%v", rsp, err)
	}
	if err := c.Set("ctr", []byte("41"), 0); err != nil {
		return err
	}
	if v, ok, err := c.Incr("ctr", 1, false); err != nil || !ok || v != 42 {
		return fmt.Errorf("incr = %d,%v,%v", v, ok, err)
	}
	// A pipelined burst, answered in order.
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.SendSet(fmt.Sprintf("burst%d", i), []byte("b"), 0); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		rsp, err := c.Recv()
		if err != nil {
			return fmt.Errorf("burst recv %d: %w", i, err)
		}
		if !rsp.Stored() && !rsp.Busy() {
			return fmt.Errorf("burst %d: %+v", i, rsp)
		}
	}
	if ok, err := c.Delete("smoke"); err != nil || !ok {
		return fmt.Errorf("delete = %v,%v", ok, err)
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if _, found := st["cmd_set"]; !found {
		return fmt.Errorf("stats missing cmd_set: %v", st)
	}
	return nil
}
