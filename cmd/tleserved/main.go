// Command tleserved serves the TLE kvstore over TCP, speaking the
// memcached text protocol, with an optional adaptive per-shard policy
// controller (internal/adaptive) moving each shard from htm-cv to
// stm-cv-noq, for good, on a capacity-abort storm.
// With the controller on, -policy must name one of those two rungs.
//
// Examples:
//
//	tleserved -addr 127.0.0.1:11222 -policy htm-cv -adaptive
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
	"net"
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
	"gotle/internal/tle"
	"gotle/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tleserved: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:11222", "listen address")
		policyName = flag.String("policy", "htm-cv", "initial policy: pthread|stm-spin|stm-cv|stm-cv-noq|htm-cv; with -adaptive, htm-cv or stm-cv-noq")
		adapt      = flag.Bool("adaptive", true, "enable the per-shard adaptive policy controller: a shard leaves htm-cv for stm-cv-noq, for good, on a capacity-abort storm")
		interval   = flag.Duration("interval", 50*time.Millisecond, "adaptive sampling window (a capacity storm is also looked at as it happens)")
		shards     = flag.Int("shards", 8, "kvstore shards")
		capacity   = flag.Int("capacity", 4096, "max items per shard (second-chance eviction past it)")
		memWords   = flag.Int("mem", 1<<23, "simulated TM heap size in words")
		maxConns   = flag.Int("conns", 48, "max concurrent connections")
		queueDepth = flag.Int("queue", 128, "per-connection execution queue depth")
		htmLines   = flag.Int("htm-write-lines", 0, "HTM write-set budget in cache lines (0 = default 512)")
		htmEvents  = flag.Int("htm-event-ppm", 5, "HTM spurious-event abort rate per million accesses (-1 disables)")
		walDir     = flag.String("wal", "", "redo-log directory: enables durability (recover on start, group-fsync per mutation)")
		deferRecl  = flag.Bool("deferred-reclaim", true, "free transactionally freed item memory on the freeing thread once a later commit finds its grace period over, instead of waiting for it on the commit path")
		stripeLog  = flag.Int("stripe-shift", 3, "STM orec granularity: 1<<n consecutive words share one ownership record (3 = 64-byte cache-line stripes; 0 = per-word)")
		replLn     = flag.String("repl-listen", "", "replication listen address: stream the per-shard commit log to follower replicas (needs -wal: followers are sent what it has fsynced)")
		follow     = flag.String("follow", "", "follower mode: subscribe to a primary's replication stream at this address and serve read-only")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (stopped at shutdown)")
	)
	flag.Parse()
	if *replLn != "" && *follow != "" {
		log.Fatal("-repl-listen and -follow are mutually exclusive (a node is a primary or a follower, not both)")
	}
	if *replLn != "" && *walDir == "" {
		log.Fatal("-repl-listen needs -wal: a primary's log is the history its followers are sent")
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

	// The replication listener is bound before the replay and served after
	// it: a follower that dials meanwhile waits in the accept queue instead
	// of backing off.
	var replL net.Listener
	if *replLn != "" {
		if replL, err = net.Listen("tcp", *replLn); err != nil {
			log.Fatal(err)
		}
	}

	// Durability: recover first (replay applies the records that survive,
	// one irrevocable section per 64, while no WAL is attached, so nothing
	// is re-logged), then attach so every mutation from here on is
	// redo-logged in commit order.
	var wlog *wal.Log
	if *walDir != "" {
		wlog, err = wal.Open(*walDir, store.ShardCount(), wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rth := r.NewThread()
		recovered, err := store.Recover(rth, wlog)
		if err != nil {
			log.Fatal(err)
		}
		applied, err := store.Stats(rth)
		rth.Release()
		if err != nil {
			log.Fatal(err)
		}
		if err := store.AttachWAL(wlog); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wal: recovered %d records from %s in %.1f ms, %d applied\n", recovered, *walDir,
			float64(store.RecoverTime().Microseconds())/1e3, applied.Sets+applied.Deletes)
	}

	// Replication. Cursor discipline is shared with the WAL: the source's
	// base and, with a log, the follower's applied cursors resume from the
	// recovered tail, so a restarted node rejoins the stream exactly where
	// its durable state left off.
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
	if replL != nil {
		src = repl.NewSource(store.ShardCount(), walTail())
		store.AttachTap(src)
		src.Serve(replL)
		fmt.Printf("repl: streaming on %s\n", replL.Addr())
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
		Addr:       *addr,
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

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	srv.Shutdown(10 * time.Second)
	// Replication stops after the server drains (no more appends) and
	// before the WAL closes: the source sends connected followers what the
	// log has fsynced, a follower stops applying.
	if src != nil {
		src.Close(5 * time.Second)
	}
	if fw != nil {
		fw.Stop()
	}
	// Every acked mutation is already durable; this fsyncs the tail.
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}
