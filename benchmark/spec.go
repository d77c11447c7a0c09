package main

// The benchmark's fixed parameters. BENCHMARK.json names the workloads and
// metrics; everything a run needs beyond the names lives here, so two
// commits measured with the same benchmark files get the same traffic.

import (
	"time"

	"gotle/internal/tle"
)

const (
	// tleserved's flag defaults, which the traced run's in-process stack
	// mirrors; TestServeDefaultsMatchTleserved reads them off the binary.
	serveShards       = 8                     // -shards
	serveCapacity     = 4096                  // -capacity
	serveMemWords     = 1 << 23               // -mem
	serveStripeShift  = 3                     // -stripe-shift
	serveHTMEventPPM  = 5                     // -htm-event-ppm
	serveInterval     = 50 * time.Millisecond // -interval
	serveStartPolicy  = tle.PolicyHTMCondVar  // -policy
	serveDeferReclaim = true                  // -deferred-reclaim

	genConns       = 2                // one generator process, 2 connections on 2 threads (= nproc)
	closedWindow   = 32               // closed-loop requests in flight per connection
	openWindowCap  = 96               // open-loop in-flight cap per connection, below the server's shed depth (128)
	sentinelKeys   = 64               // per connection, written by that connection only
	sentinelEvery  = 64               // every 64th op of a stream is a sentinel set or get
	versionEvery   = 100              // every 100th op is a version probe (the no-store round trip)
	streamOps      = 1 << 19          // pre-generated ops per connection, cycled
	serveSliceNs   = int64(250e6)     // serve workloads: one slice of a four-slice cycle
	warmSliceNs    = int64(250e6)     // warm-up runs closed-loop in quarter-second slices
	warmStableNs   = int64(1e9)       // ... until no adaptive switch for this long
	warmCapNs      = int64(3e9)       // ... or this cap
	drainNs        = int64(2e9)       // unanswered after this long past a slice's end counts as failed
	setupRepeats   = 3                // set-ups (start, fill, warm up) per run; setup_s is their median
	seedWALRecs    = 200_000          // serve-durable recovers this many records at start-up
	maxOneSidedPct = 15               // serve-durable: keys only one replica holds, as a share of those both hold (eviction gives 2-6 %)
	tmSliceNs      = int64(100e6)     // tm-sets: one cell per slice, round-robin
	tmWarmSliceNs  = int64(50e6)      // tm-sets: warm-up is one pass of shorter slices over the cells
	tmSampleEvery  = 32               // tm-sets: 1 in 32 critical sections is timed
	tmThreads      = 2                // tm-sets worker threads
	tmStreamOps    = 1 << 16          // pre-generated ops per thread and structure, cycled
	maxSpanLines   = 40_000           // spans written per trace file
	traceFileFmt   = "trace-%s.jsonl" // under the output directory
	valPatternLen  = 4096 + 256       // shared value bytes; a value is a window into them
)

// workload describes one serve workload's server flags and traffic.
type workload struct {
	name        string
	serverFlags []string
	// In-process equivalents of serverFlags for the traced run.
	htmWriteLines int
	capacity      int
	setPct        int // remainder after sets and deletes are gets
	delPct        int
	valSizes      []int
	keys          int
	zipf          float64 // 0 = uniform
	prefill       int     // keys set during set-up (0 = none; serve-durable recovers instead)
	openRate      int     // open-loop ops/s over both connections, at most half the seed's saturated rate
	latLimitUs    float64 // p99 limit; slower open-loop ops count in loadgen.slo_miss_ratio
	durable       bool    // WAL + replication source + one follower
	evicts        bool    // keyspace exceeds capacity, so a sentinel get may legally miss
}

var serveWorkloads = []workload{
	{
		name: "serve-read", capacity: serveCapacity,
		setPct: 5, valSizes: []int{64}, keys: 4096, prefill: 4096,
		openRate: 10000, latLimitUs: 5000,
	},
	{
		name: "serve-write", serverFlags: []string{"-htm-write-lines", "24", "-capacity", "2048"},
		htmWriteLines: 24, capacity: 2048,
		setPct: 60, delPct: 10, valSizes: []int{64, 2048}, keys: 32768, zipf: 1.1, prefill: 16384,
		openRate: 10000, latLimitUs: 5000, evicts: true,
	},
	{
		name: "serve-durable", serverFlags: []string{"-htm-write-lines", "24", "-capacity", "2048"},
		htmWriteLines: 24, capacity: 2048,
		setPct: 60, delPct: 10, valSizes: []int{64, 2048}, keys: 32768, zipf: 1.1,
		openRate: 4000, latLimitUs: 20000, durable: true, evicts: true,
	},
}

const tmSetsName = "tm-sets"

func findWorkload(name string) *workload {
	for i := range serveWorkloads {
		if serveWorkloads[i].name == name {
			return &serveWorkloads[i]
		}
	}
	return nil
}

// metricDef is a metric's name and unit; BENCHMARK.json carries the same
// pairs, and a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"speedup_vs_lock", "ratio"},
	{"lat_vs_lock", "ratio"},
	{"cpu_vs_lock", "ratio"},
	{"rss_mb", "MB"},
}

var tmStructures = []string{"list", "hash", "tree"}
var tmPolicies = []string{"pthread", "stm-cv", "stm-cv-noq", "htm-cv"}

// Layer probes run per elided mechanism: the STM ladder's entry point and the
// simulated HTM.
var probePolicies = []string{"stm-cv", "htm-cv"}

var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		// What the whole stack did, in absolute terms. These were meant to be
		// end-to-end metrics; on the reference box they differ by 20-35 %
		// between runs of the same build, so the bounded metrics are ratios
		// to the lock baseline and these are reported without a bound.
		{"stack.ops_per_s", "1/s"},
		{"stack.lat_p50_us", "us"},
		{"stack.lat_p99_us", "us"},
		{"stack.cpu_us_per_op", "us"},
		{"stack.setup_s", "s"},
		{"server.parse_ns", "ns"},
		{"server.version_rtt_us", "us"},
		{"server.fused_ops_per_batch", "count"},
		{"server.syscalls_per_op", "count"},
		{"server.ctxsw_per_op", "count"},
		{"server.shed_ratio", "ratio"},
		{"server.unattributed_us", "us"},
		{"kvstore.hit_ratio", "ratio"},
		{"kvstore.evictions_per_op", "count"},
		{"kvstore.tx_us_p50", "us"},
	}
	for _, p := range probePolicies {
		ms = append(ms,
			metricDef{"kvstore.get_ns." + p, "ns"},
			metricDef{"kvstore.set_ns." + p, "ns"},
			metricDef{"kvstore.delete_ns." + p, "ns"},
			metricDef{"kvstore.batch_ns_per_op." + p, "ns"},
			metricDef{"tle.do_ns." + p, "ns"},
		)
	}
	ms = append(ms,
		metricDef{"tm.attempts_per_commit", "ratio"},
		metricDef{"tm.serial_ratio", "ratio"},
		metricDef{"tm.abort_conflict_ratio", "ratio"},
		metricDef{"tm.abort_capacity_ratio", "ratio"},
		metricDef{"tm.abort_event_ratio", "ratio"},
		metricDef{"stm.ro10_ns", "ns"},
		metricDef{"stm.w4_ns", "ns"},
		metricDef{"stm.reads_deduped_per_commit", "count"},
		metricDef{"htm.rmw_ns", "ns"},
		metricDef{"memseg.alloc_free_ns", "ns"},
		metricDef{"epoch.quiesces_per_commit", "ratio"},
		metricDef{"epoch.quiesce_ns_per_commit", "ns"},
		metricDef{"epoch.shared_grace_ratio", "ratio"},
		metricDef{"epoch.noquiesce_ratio", "ratio"},
		metricDef{"epoch.quiesce_ns.t2", "ns"},
		metricDef{"adaptive.switches", "count"},
		metricDef{"adaptive.htm_shards_at_end", "count"},
		metricDef{"wal.append_ns", "ns"},
		metricDef{"wal.ticket_wait_us_p50", "us"},
		metricDef{"wal.appends_per_fsync", "count"},
		metricDef{"wal.fsyncs_per_s", "1/s"},
		metricDef{"wal.bytes_per_user_byte", "ratio"},
		metricDef{"wal.recover_us_per_rec", "us"},
		metricDef{"logrec.encode_ns", "ns"},
		metricDef{"logrec.decode_ns", "ns"},
		metricDef{"repl.publish_ns", "ns"},
		metricDef{"repl.lag_recs_p50", "count"},
		metricDef{"repl.lag_recs_max", "count"},
		metricDef{"repl.apply_delay_ms_p50", "ms"},
		metricDef{"repl.catchup_us_per_rec", "us"},
	)
	for _, s := range tmStructures {
		for _, p := range tmPolicies {
			ms = append(ms, metricDef{"tmds." + s + "." + p + ".ops_per_s", "1/s"})
		}
	}
	ms = append(ms,
		metricDef{"loadgen.late_p99_us", "us"},
		metricDef{"loadgen.cpu_us_per_op", "us"},
		metricDef{"loadgen.slo_miss_ratio", "ratio"},
		metricDef{"loadgen.stream_hash", "count"},
		metricDef{"host.calib_alu_ns", "ns"},
		metricDef{"host.calib_mem_ns", "ns"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return ms
}
