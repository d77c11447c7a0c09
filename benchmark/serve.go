package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/server/client"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // diagnostics for stderr
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// loadRun is the generator side of a serve run: the stream, the connections
// and the host probes that run in the gaps between slices.
type loadRun struct {
	st    *stream
	conns []*gconn
	base  time.Time
	probe *hostProbe
	res   *result
}

// connect dials the generator's connections to addr.
func (l *loadRun) connect(addr string, openSlices int) error {
	arena := int(int64(l.st.w.openRate/genConns)*int64(openSlices)*serveSliceNs/1e9)*11/10 + 4096
	for i := 0; i < genConns; i++ {
		c, err := dialGen(i, addr, l.st, l.base, arena)
		if err != nil {
			l.disconnect()
			return err
		}
		l.conns = append(l.conns, c)
	}
	return nil
}

func (l *loadRun) disconnect() {
	for _, c := range l.conns {
		c.close()
	}
	l.conns = nil
}

// genTids is the set of generator thread ids, for taking the generator out
// of per-process counters when the server runs in this process.
func (l *loadRun) genTids() map[int]bool {
	m := map[int]bool{}
	for _, c := range l.conns {
		m[c.tid] = true
	}
	return m
}

// slice runs one slice on all connections, starting a moment from now, and
// counts its requests into the run's totals.
func (l *loadRun) slice(mode int, durNs int64, trace bool) []sliceStats {
	start := int64(time.Since(l.base)) + int64(time.Millisecond)
	cmd := sliceCmd{mode: mode, start: start, end: start + durNs, trace: trace}
	if mode == modeOpen {
		cmd.interval = int64(1e9) * genConns / int64(l.st.w.openRate)
	}
	stats := runAll(l.conns, cmd)
	for i := range stats {
		l.res.attempted += stats[i].sent
		l.res.failed += stats[i].failed()
	}
	return stats
}

// gap is the pause between slices, 10 ms; with probes, it first runs the two
// host probes (about 8 ms).
func (l *loadRun) gap(probes bool) {
	t0 := time.Now()
	if probes {
		l.probe.run()
	}
	if rest := 10*time.Millisecond - time.Since(t0); rest > 0 {
		time.Sleep(rest)
	}
}

// warmUp drives closed-loop traffic for warmStableNs and returns how long
// that took.
func (l *loadRun) warmUp() (seconds float64) {
	t0 := time.Now()
	for total := int64(0); total < warmStableNs; total += warmSliceNs {
		l.slice(modeClosed, warmSliceNs, false)
	}
	return time.Since(t0).Seconds()
}

// settle extends a warm-up until switches() has not moved for warmStableNs
// (before is its reading from before the warm-up) or the whole warm-up has
// lasted warmCapNs.
func (l *loadRun) settle(switches func() uint64, before uint64) {
	last, stable := before, warmStableNs
	for total := warmStableNs; total < warmCapNs; total += warmSliceNs {
		if now := switches(); now != last {
			last, stable = now, 0
		}
		if stable >= warmStableNs {
			return
		}
		l.slice(modeClosed, warmSliceNs, false)
		stable += warmSliceNs
	}
}

// openSliceLatency is the p50 and p99, in us, of one open-loop slice over
// all connections, and the number of samples behind them.
func openSliceLatency(stats []sliceStats) (p50us, p99us float64, n int) {
	var parts [][]uint32
	for i := range stats {
		parts = append(parts, stats[i].lat)
	}
	all := sortedU32(parts...)
	return quantileU32(all, 0.50) / 1e3, quantileU32(all, 0.99) / 1e3, len(all)
}

func doneOf(stats []sliceStats) (done, doneBy int) {
	for i := range stats {
		done += stats[i].done
		doneBy += stats[i].doneBy
	}
	return
}

// serveEnv is the set of subprocesses of a serve run.
type serveEnv struct {
	w        *workload
	bin      string
	flags    []string // the workload's server flags, plus the policy under test
	dir      string   // scratch directory of this server set
	seedWAL  string   // pristine seeded log (durable only)
	replAddr string   // the primary's replication address (durable only)
	primary  *proc
	follower *proc
}

func (e *serveEnv) primaryArgs() []string {
	args := append([]string{}, e.flags...)
	if e.w.durable {
		args = append(args, "-wal", filepath.Join(e.dir, "wal-primary"), "-repl-listen", e.replAddr)
	}
	return args
}

// freeLoopbackAddr asks the kernel for an unused port and releases it.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// prepare does what a start needs and set-up time should not include: fresh
// copies of the seeded log for primary and follower, and a replication
// address. The follower has to be told that address before the primary has
// bound it, so that both can recover their logs side by side.
func (e *serveEnv) prepare() error {
	if !e.w.durable {
		return nil
	}
	for _, d := range []string{"wal-primary", "wal-follower"} {
		if err := os.RemoveAll(filepath.Join(e.dir, d)); err != nil {
			return err
		}
		if err := copyDir(e.seedWAL, filepath.Join(e.dir, d)); err != nil {
			return err
		}
	}
	var err error
	e.replAddr, err = freeLoopbackAddr()
	return err
}

// start executes the servers and waits until they answer: the primary and,
// on a durable workload, the follower at once, each recovering its copy of
// the log; the follower redials until the primary's stream is up.
func (e *serveEnv) start() error {
	var err error
	if e.primary, err = startServer(e.bin, e.primaryArgs()...); err != nil {
		return err
	}
	if !e.w.durable {
		return e.primary.awaitReady(false)
	}
	args := append(append([]string{}, e.flags...),
		"-wal", filepath.Join(e.dir, "wal-follower"), "-follow", e.replAddr)
	if e.follower, err = startServer(e.bin, args...); err != nil {
		return err
	}
	if err := e.primary.awaitReady(true); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if err := e.follower.awaitReady(false); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return pollUntil(10*time.Second, func() (bool, error) {
		st, err := serverStats(e.follower.addr)
		return err == nil && st["repl_connected"] == "true", err
	})
}

func (e *serveEnv) stop() {
	for _, p := range []*proc{e.follower, e.primary} {
		if p != nil {
			p.kill()
		}
	}
	e.primary, e.follower = nil, nil
}

func (e *serveEnv) pids() []int {
	pids := []int{e.primary.pid()}
	if e.follower != nil {
		pids = append(pids, e.follower.pid())
	}
	return pids
}

// shardSeq stamps log records the way a store's commit path does: the shard a
// key hashes to (a throwaway store with tleserved's default 8 shards does the
// hashing) and that shard's next sequence number.
type shardSeq struct {
	rt    *tle.Runtime
	store *kvstore.Store
	seqs  []uint64
}

func newShardSeq() *shardSeq {
	rt := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 16})
	store := kvstore.New(rt, kvstore.Config{Shards: serveShards})
	return &shardSeq{rt: rt, store: store, seqs: make([]uint64, store.ShardCount())}
}

func (r *shardSeq) next(key []byte) (shard int, seq uint64) {
	shard = r.store.ShardFor(key)
	r.seqs[shard]++
	return shard, r.seqs[shard]
}

func (r *shardSeq) close() { r.rt.Close() }

// writeSeedWAL writes the seeded start-up log through the WAL's own
// Open/Append/Close, with the workload's key distribution and set:delete
// ratio at the small value size (the large one would make it 180 MB).
func writeSeedWAL(dir string, st *stream, seed int64) error {
	router := newShardSeq()
	defer router.close()
	l, err := wal.Open(dir, len(router.seqs), wal.Options{})
	if err != nil {
		return err
	}
	if _, err := l.Recover(nil); err != nil { // an empty scan; a Log accepts appends only after it
		l.Close()
		return err
	}
	w := st.w
	rng := rand.New(rand.NewSource(seed ^ 0x3a1))
	zipf := rand.NewZipf(rng, w.zipf, 1, uint64(w.keys-1))
	var last wal.Ticket
	for i := 0; i < seedWALRecs; i++ {
		k := int(zipf.Uint64())
		rec := wal.Record{Op: wal.OpSet, Key: st.keys[k], Val: st.value(k, w.valSizes[0])}
		if rng.Intn(w.setPct+w.delPct) >= w.setPct {
			rec.Op, rec.Val = wal.OpDelete, nil
		}
		var sh int
		sh, rec.Seq = router.next(rec.Key)
		last = l.Append(sh, rec)
	}
	if err := last.Wait(); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}

// lockBaselineFlags turn a tleserved into the paper's baseline: every shard
// mutex a real lock, no controller to move it.
var lockBaselineFlags = []string{"-policy", "pthread", "-adaptive=false"}

// side is one of the two server sets of an untraced run (the configuration
// under test, or the lock baseline) with its own generator connections and
// what its slices measured.
type side struct {
	env                *serveEnv
	load               *loadRun
	thr, p50, p99, cpu []float64
}

// bringUp replaces the side's servers with fresh ones, connects the
// generator and prefills. It returns how long that took: exec to first
// version reply (which includes recovery, and the follower connected) plus
// prefill. Tearing the previous set down and copying logs is done before the
// clock starts.
func (sd *side) bringUp(openSlices int) (seconds float64, err error) {
	sd.shutDown()
	if err := sd.env.prepare(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := sd.env.start(); err != nil {
		return 0, err
	}
	if err := sd.load.connect(sd.env.primary.addr, openSlices); err != nil {
		return 0, err
	}
	if err := prefillKeys(sd.load.conns, sd.env.w.prefill); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

func (sd *side) shutDown() {
	sd.load.disconnect()
	sd.env.stop()
}

// runServe is the untraced run of a serve workload. It drives the real
// binary as a subprocess, so its CPU and memory are its own, and next to it
// the same binary as the lock baseline, slice by slice in turn: this box's
// speed drifts by tens of percent over minutes, and only a ratio of
// neighbouring slices is the same number from one run to the next.
func runServe(w *workload, seed int64, seconds int, bin, buildDir string) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newStream(w, seed)
	seedWAL := filepath.Join(dir, "wal-seed")
	if w.durable {
		if err := writeSeedWAL(seedWAL, st, seed); err != nil {
			return nil, fmt.Errorf("seed WAL: %w", err)
		}
	}
	runtime.LockOSThread() // the host probes read this thread's CPU clock
	base, probe := time.Now(), newHostProbe()
	newSide := func(name string, extra []string) *side {
		return &side{
			env: &serveEnv{w: w, bin: bin, dir: filepath.Join(dir, name), seedWAL: seedWAL,
				flags: append(append([]string{}, w.serverFlags...), extra...)},
			load: &loadRun{st: st, base: base, probe: probe, res: res},
		}
	}
	elided, lock := newSide("elided", nil), newSide("lock", lockBaselineFlags)
	defer elided.shutDown()
	defer lock.shutDown()

	// The run is cut into as many segments as there are set-ups, each on
	// freshly started servers: how fast a server process runs differs from
	// one start to the next by as much as whole runs differ (memory layout,
	// where the scheduler settles its threads), so a run spans several. A
	// segment starts the baseline, then starts and fills the configuration
	// under test and warms it up for a fixed second, which is one sample of
	// set-up time and of memory; the warm-up goes on until the adaptive
	// ladder is at rest; then come the segment's cycles of four slices: open
	// loop on the configuration under test, open loop on the baseline, closed
	// loop on each.
	cycles := max(1, int(int64(seconds)*1e9/serveSliceNs/4))
	segSlices := cycles/setupRepeats + 1 // open-loop slices a connection records at most
	var setups, starts, rss, rssEnd []float64
	minSamples := 1 << 30
	for seg := 0; seg < setupRepeats; seg++ {
		if _, err := lock.bringUp(segSlices); err != nil {
			return nil, fmt.Errorf("lock baseline: %w", err)
		}
		lock.load.slice(modeClosed, warmSliceNs, false) // no ladder to settle: one slice after the prefill
		start, err := elided.bringUp(segSlices)
		if err != nil {
			return nil, err
		}
		switches := func() uint64 {
			stats, err := serverStats(elided.env.primary.addr)
			if err != nil {
				return 0
			}
			return sumShardStat(stats, "switches")
		}
		before := switches()
		setups, starts = append(setups, start+elided.load.warmUp()), append(starts, start)
		rss = append(rss, procPeakRSSMB(elided.env.pids()))
		elided.load.settle(switches, before)

		for c := cycles * seg / setupRepeats; c < cycles*(seg+1)/setupRepeats; c++ {
			for _, mode := range []int{modeOpen, modeClosed} {
				for _, sd := range []*side{elided, lock} {
					cpu0 := procCPUNs(sd.env.pids(), nil)
					stats := sd.load.slice(mode, serveSliceNs, false)
					cpu := procCPUNs(sd.env.pids(), nil) - cpu0
					done, doneBy := doneOf(stats)
					if mode == modeOpen {
						p50, p99, n := openSliceLatency(stats)
						sd.p50, sd.p99 = append(sd.p50, p50), append(sd.p99, p99)
						sd.cpu = append(sd.cpu, ratio(float64(cpu)/1e3, float64(done)))
						minSamples = min(minSamples, n)
					} else {
						sd.thr = append(sd.thr, float64(doneBy)/(float64(serveSliceNs)/1e9))
					}
					sd.load.gap(sd == lock && mode == modeClosed) // probes once a cycle
				}
			}
		}
		rssEnd = append(rssEnd, procPeakRSSMB(elided.env.pids()))
	}
	res.metrics["setup_s"] = median(setups)
	res.notef("set-ups: start and prefill %.4f s, with warm-up %.4f s; peak RSS %.1f MB warmed up, %.1f MB after the segment", starts, setups, rss, rssEnd)
	var speedups, latRatios, cpuRatios []float64
	for c := 0; c < cycles; c++ {
		speedups = append(speedups, ratio(elided.thr[c], lock.thr[c]))
		latRatios = append(latRatios, ratio(elided.p50[c], lock.p50[c]))
		cpuRatios = append(cpuRatios, ratio(elided.cpu[c], lock.cpu[c]))
	}
	res.metrics["speedup_vs_lock"] = median(speedups)
	res.metrics["lat_vs_lock"] = median(latRatios)
	res.metrics["cpu_vs_lock"] = median(cpuRatios)
	res.metrics["rss_mb"] = median(rss)
	res.notef("%d cycles of 4 x %d ms over %d server starts; open loop %d ops/s, >= %d samples a slice; closed loop %dx%d",
		cycles, serveSliceNs/1e6, setupRepeats, w.openRate, minSamples, genConns, closedWindow)
	for _, sd := range []*side{elided, lock} {
		res.notef("%s: ops_per_s=%.0f lat_p50_us=%.1f lat_p99_us=%.1f cpu_us_per_op=%.2f (medians over slices)",
			filepath.Base(sd.env.dir), median(sd.thr), median(sd.p50), median(sd.p99), median(sd.cpu))
	}
	res.notef("host.calib_alu_ns=%.3f host.calib_mem_ns=%.2f (median over %d cycles)",
		median(probe.aluNs), median(probe.memNs), len(probe.aluNs))

	lock.shutDown()
	if w.durable {
		if err := durableChecks(elided.env, elided.load); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// durableChecks ends a serve-durable run: every sentinel is set once more
// and acknowledged; once the follower has applied everything, every key both
// replicas hold must match byte for byte (flags, CAS token, value), the keys
// only one of them holds must be few, and the follower must return every
// sentinel at its acknowledged version; and after a SIGKILL the restarted
// primary must return every acknowledged sentinel too.
//
// Whole dumps cannot be compared: the workload evicts, a get refreshes
// recency on the primary only, and evictions are not replicated, so the two
// LRUs pick different victims (2-6 % of the keys end up on one side only).
// The sentinels were written last, so no LRU has evicted them: a follower
// that drops or never applies records fails on them, and one that lost more
// than eviction explains fails on the one-sided share.
func durableChecks(env *serveEnv, load *loadRun) error {
	res := load.res
	if err := prefillKeys(load.conns, 0); err != nil {
		return fmt.Errorf("final sentinel writes: %w", err)
	}
	res.attempted += genConns * sentinelKeys
	err := pollUntil(20*time.Second, func() (bool, error) {
		ps, err := serverStats(env.primary.addr)
		if err != nil {
			return false, err
		}
		fs, err := serverStats(env.follower.addr)
		if err != nil {
			return false, err
		}
		return sumShardStat(ps, "repl_seq") == sumShardStat(fs, "repl_applied"), nil
	})
	if err != nil {
		return fmt.Errorf("follower never caught up: %w", err)
	}
	pc, err := client.Dial(env.primary.addr)
	if err != nil {
		return err
	}
	defer pc.Close()
	fc, err := client.Dial(env.follower.addr)
	if err != nil {
		return err
	}
	defer fc.Close()
	ps, err := pc.Stats()
	if err != nil {
		return err
	}
	common, oneSided := 0, 0
	for i := 0; ; i++ {
		if _, ok := ps["shard"+strconv.Itoa(i)+"_repl_seq"]; !ok {
			break
		}
		pd, err := pc.ShardDump(i)
		if err != nil {
			return err
		}
		fd, err := fc.ShardDump(i)
		if err != nil {
			return err
		}
		pe, fe := dumpEntries(pd), dumpEntries(fd)
		res.attempted++
		if pe == nil || fe == nil {
			res.failed++
			res.notef("shard %d: unparseable dump", i)
			continue
		}
		differ := 0
		for key, entry := range pe {
			if other, ok := fe[key]; !ok {
				oneSided++
			} else if common++; !bytes.Equal(entry, other) {
				differ++
			}
		}
		for key := range fe {
			if _, ok := pe[key]; !ok {
				oneSided++
			}
		}
		if differ > 0 {
			res.failed++
			res.notef("shard %d: %d keys differ between primary and follower", i, differ)
		}
	}
	res.attempted++
	if oneSided*100 > common*maxOneSidedPct {
		res.failed++
	}
	res.notef("convergence: %d keys on both replicas compared byte for byte (flags, CAS, value); %d keys on one side only (eviction order is not replicated; limit %d %%)", common, oneSided, maxOneSidedPct)
	stale := 0
	for _, c := range load.conns {
		for k := 0; k < sentinelKeys; k++ {
			res.attempted++
			it, ok, err := fc.Get(string(load.st.sentKey[c.id][k]))
			if err != nil {
				return err
			}
			ver, valid := load.st.sentinelVersion(it.Value, k)
			if !ok || !valid || ver != c.sentAck[k] {
				stale++
			}
		}
	}
	res.failed += stale
	res.notef("replication: %d of %d acknowledged sentinels missing or stale on the follower", stale, genConns*sentinelKeys)

	// Crash the primary. Every sentinel write above was acknowledged, so
	// the restarted server must return each at exactly that version.
	want := [genConns][sentinelKeys]uint64{}
	for _, c := range load.conns {
		want[c.id] = c.sentAck
	}
	load.disconnect()
	env.follower.kill()
	env.follower = nil
	env.primary.kill()
	if env.primary, err = startServer(env.bin, env.primaryArgs()...); err != nil {
		return err
	}
	if err := env.primary.awaitReady(true); err != nil {
		return fmt.Errorf("primary restart: %w", err)
	}
	rc, err := client.Dial(env.primary.addr)
	if err != nil {
		return err
	}
	defer rc.Close()
	lost := 0
	for c := 0; c < genConns; c++ {
		for k := 0; k < sentinelKeys; k++ {
			res.attempted++
			it, ok, err := rc.Get(string(load.st.sentKey[c][k]))
			if err != nil {
				return err
			}
			ver, valid := load.st.sentinelVersion(it.Value, k)
			if !ok || !valid || ver != want[c][k] {
				lost++
			}
		}
	}
	res.failed += lost
	res.notef("durability: %d of %d acknowledged sentinels lost across SIGKILL", lost, genConns*sentinelKeys)
	return nil
}

// dumpEntries splits a kvstore.DumpShard blob (u32 count, then per entry
// u32 keyLen | key | u32 flags | u64 cas | u32 valLen | val) into
// key -> the entry's bytes after the key. It returns nil on a malformed blob.
func dumpEntries(b []byte) map[string][]byte {
	if len(b) < 4 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil
		}
		kl := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+kl+16 {
			return nil
		}
		key, rest := string(b[4:4+kl]), b[4+kl:]
		vl := int(binary.LittleEndian.Uint32(rest[12:]))
		if len(rest) < 16+vl {
			return nil
		}
		out[key] = rest[:16+vl]
		b = rest[16+vl:]
	}
	return out
}
