package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/kvstore"
	"gotle/internal/repl"
	"gotle/internal/server"
	"gotle/internal/server/client"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// The traced run of a serve workload. The stack cmd/tleserved assembles is
// rebuilt here, in this process, from the same public constructors, so that
// the driver can (a) read each layer's counters at the window edges, (b) put
// a span around each call a request makes into a layer, and (c) time each
// layer's functions alone. Spans inside the server are a later change; until
// then the socket path is one client-side span and the per-layer spans come
// from driving the layers directly with the same requests.

// stack is the in-process equivalent of one tleserved primary and, for
// serve-durable, its follower.
type stack struct {
	rt    *tle.Runtime
	store *kvstore.Store
	wlog  *wal.Log
	src   *repl.Source
	ctl   *adaptive.Controller
	srv   *server.Server
	addr  string

	frt    *tle.Runtime
	fstore *kvstore.Store
	fwlog  *wal.Log
	fw     *repl.Follower

	recovered int
	recoverNs int64
}

// recoverStore opens dir's log and replays it into store, as tleserved does.
func recoverStore(rt *tle.Runtime, store *kvstore.Store, dir string) (*wal.Log, int, error) {
	l, err := wal.Open(dir, store.ShardCount(), wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	th := rt.NewThread()
	defer th.Release()
	n, err := l.Recover(func(_ int, rec wal.Record) error {
		if rec.Op == wal.OpDelete {
			_, err := store.Delete(th, rec.Key)
			return err
		}
		return store.SetItem(th, rec.Key, rec.Val, rec.Flags)
	})
	if err == nil {
		err = store.AttachWAL(l)
	}
	if err != nil {
		l.Close()
		return nil, 0, err
	}
	return l, n, nil
}

func walTail(l *wal.Log) []uint64 {
	t := make([]uint64, l.Shards())
	for i := range t {
		t[i] = l.LastSeq(i)
	}
	return t
}

func buildStack(w *workload, dir, seedWAL string) (*stack, error) {
	s := &stack{rt: newServeRuntime(w, serveStartPolicy, true)}
	s.store = newServeStore(w, s.rt)
	var err error
	if w.durable {
		for _, d := range []string{"wal-primary", "wal-follower"} {
			if err := copyDir(seedWAL, filepath.Join(dir, d)); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s.wlog, s.recovered, err = recoverStore(s.rt, s.store, filepath.Join(dir, "wal-primary")); err != nil {
			return nil, err
		}
		s.recoverNs = time.Since(t0).Nanoseconds()
		s.src = repl.NewSource(s.store.ShardCount(), walTail(s.wlog))
		s.store.AttachTap(s.src)
		raddr, err := s.src.Start("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.frt = newServeRuntime(w, serveStartPolicy, true)
		s.fstore = newServeStore(w, s.frt)
		if s.fwlog, _, err = recoverStore(s.frt, s.fstore, filepath.Join(dir, "wal-follower")); err != nil {
			return nil, err
		}
		s.fw = repl.NewFollower(s.frt, s.fstore, raddr.String(), walTail(s.fwlog))
		s.fw.Start()
	}
	if s.ctl, err = adaptive.New(s.rt, s.store.ShardMutexes(), adaptive.Config{Interval: serveInterval}); err != nil {
		return nil, err
	}
	s.ctl.Start()
	s.srv = server.New(s.rt, s.store, server.Config{Controller: s.ctl, WAL: s.wlog})
	bound, err := s.srv.Start()
	if err != nil {
		return nil, err
	}
	s.addr = bound.String()
	return s, nil
}

// close tears down in tleserved's order: drain the server, then the
// replication stream, then the logs.
func (s *stack) close() {
	if s.srv != nil {
		s.srv.Shutdown(2 * time.Second)
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
	if s.src != nil {
		s.src.Close(2 * time.Second)
	}
	if s.fw != nil {
		s.fw.Stop()
	}
	for _, l := range []*wal.Log{s.wlog, s.fwlog} {
		if l != nil {
			l.Close()
		}
	}
	s.rt.Close()
	if s.frt != nil {
		s.frt.Close()
	}
}

func (s *stack) switches() (total uint64, htmShards int) {
	for _, st := range s.ctl.Status() {
		total += st.Switches
		if st.Policy == tle.PolicyHTMCondVar {
			htmShards++
		}
	}
	return
}

// lag is how many published records the follower has not applied yet.
func (s *stack) lag() float64 {
	var behind uint64
	for i := 0; i < s.store.ShardCount(); i++ {
		if seq, applied := s.src.Seq(i), s.fw.Applied(i); seq > applied {
			behind += seq - applied
		}
	}
	return float64(behind)
}

// applyDelayMs writes a marker on the primary and waits for it to be
// readable on the follower.
func (s *stack) applyDelayMs(th, fth *tm.Thread, marker uint64) (float64, error) {
	key := []byte("sen:applydelay")
	val := strconv.AppendUint(nil, marker, 10)
	t0 := time.Now()
	tk, err := s.store.SetItemD(th, key, val, 0)
	if err != nil {
		return 0, err
	}
	if err := tk.Wait(); err != nil {
		return 0, err
	}
	for time.Since(t0) < 2*time.Second {
		got, ok, err := s.fstore.Get(fth, key)
		if err != nil {
			return 0, err
		}
		if ok && bytes.Equal(got, val) {
			return float64(time.Since(t0).Microseconds()) / 1e3, nil
		}
		runtime.Gosched()
	}
	return 0, fmt.Errorf("marker %d never reached the follower", marker)
}

// reqSpan is one request driven through the layers by direct calls.
type reqSpan struct {
	kind           int
	t0, t1, t2, t3 int64 // parse start, parse end = tx start, tx end = wait start, wait end
}

// directCalls replays connection c's stream against the layers' public
// functions until the deadline: server.ParseCommand on the request line, the
// kvstore call the server's executor would make, then the WAL ticket wait.
func (s *stack) directCalls(st *stream, c int, base time.Time, until int64, spans []reqSpan) ([]reqSpan, error) {
	th := s.rt.NewThread()
	defer th.Release()
	ops := st.ops[c]
	var buf, line, built, sval []byte // built holds request lines made here; line may alias the stream's
	var vers [sentinelKeys]uint64
	trimCRLF := func(b []byte) []byte { return b[:len(b)-2] }
	for pos := 0; ; pos = (pos + 1) % len(ops) {
		o := ops[pos]
		k := o.key()
		var data []byte
		switch o.kind() {
		case kGet:
			line = trimCRLF(st.getReq[k])
		case kDel:
			line = trimCRLF(st.delReq[k])
		case kSet:
			line, data = trimCRLF(st.setHdr[o.size()][k]), st.value(k, st.w.valSizes[o.size()])
		case kSentSet:
			vers[k]++
			sval = st.appendSentinelValue(sval[:0], k, vers[k])
			built = append(append(append(built[:0], "set "...), st.sentKey[c][k]...), " 0 0 64"...)
			line, data = built, sval
		case kSentGet:
			built = append(append(built[:0], "get "...), st.sentKey[c][k]...)
			line = built
		case kVersion:
			line = trimCRLF(versionReq)
		}
		var sp reqSpan
		sp.kind = o.kind()
		sp.t0 = int64(time.Since(base))
		if sp.t0 >= until {
			return spans, nil
		}
		cmd, err := server.ParseCommand(line)
		sp.t1 = int64(time.Since(base))
		if err != nil {
			return spans, err
		}
		var tk wal.Ticket
		switch cmd.Op {
		case server.OpGet:
			buf, _, _, err = s.store.GetItemAppend(th, cmd.Keys[0], buf[:0])
		case server.OpSet:
			tk, err = s.store.SetItemD(th, cmd.Key, data, cmd.Flags)
		case server.OpDelete:
			_, tk, err = s.store.DeleteD(th, cmd.Key)
		}
		sp.t2 = int64(time.Since(base))
		if err == nil {
			err = tk.Wait()
		}
		sp.t3 = int64(time.Since(base))
		if err != nil {
			return spans, err
		}
		if len(spans) < cap(spans) {
			spans = append(spans, sp)
		}
	}
}

var kindNames = [...]string{kGet: "get", kSet: "set", kDel: "delete", kSentSet: "set", kSentGet: "get", kVersion: "version"}

func medianOf(spans []reqSpan, keep func(*reqSpan) bool, dur func(*reqSpan) int64) float64 {
	var xs []float64
	for i := range spans {
		if keep(&spans[i]) {
			xs = append(xs, float64(dur(&spans[i])))
		}
	}
	return median(xs)
}

func runServeTraced(w *workload, seed int64, seconds int, buildDir, outDir string) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	m := res.metrics
	// The untraced run has the server's two processors and the generator's
	// two threads; give this process the same.
	runtime.GOMAXPROCS(runtime.NumCPU() + genConns)
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
	tSetup := time.Now()
	s, err := buildStack(w, dir, seedWAL)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return nil, err
	}

	// Window split: 60 % socket path, 20 % direct calls; the fixed-count
	// layer probes take the rest.
	socketSlices := max(4, int(int64(seconds)*6e8/serveSliceNs)/4*4) // a multiple of the four-slice cycle
	load := &loadRun{st: st, base: time.Now(), probe: newHostProbe(), res: res}
	defer load.disconnect()
	if err := load.connect(s.addr, socketSlices/2); err != nil {
		return nil, err
	}
	if err := prefillKeys(load.conns, w.prefill); err != nil {
		return nil, err
	}
	m["stack.setup_s"] = time.Since(tSetup).Seconds()
	switches := func() uint64 { n, _ := s.switches(); return n }
	before := switches()
	load.warmUp()
	load.settle(switches, before)

	ctl, err := client.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	th := s.rt.NewThread()
	defer th.Release()
	var fth *tm.Thread
	if w.durable {
		fth = s.frt.NewThread()
		defer fth.Release()
	}
	genTids, self := load.genTids(), syscall.Getpid()

	// Follower lag is sampled at 20 Hz while traffic runs.
	var lags []float64
	var lagMu sync.Mutex
	stopLag, lagDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(lagDone)
		if !w.durable {
			return
		}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				lagMu.Lock()
				lags = append(lags, s.lag())
				lagMu.Unlock()
			}
		}
	}()

	// Counters at the window's opening edge.
	eng0 := s.rt.Engine().Snapshot()
	kv0, err := s.store.Stats(th)
	if err != nil {
		return nil, err
	}
	srv0, err := ctl.Stats()
	if err != nil {
		return nil, err
	}
	var wal0 wal.Stats
	if s.wlog != nil {
		wal0 = s.wlog.Stats()
	}
	sw0, _ := s.switches()
	t0 := time.Now()

	var p50On, p50Off, p50All, p99All, thrAll, srvCPU, lateP99, genCPU, verRTT, sysPerOp, ctxPerOp, delays []float64
	var rtts []rttSpan
	done, sloMiss, openSent, userBytes := 0, 0, 0, 0
	for i := 0; i < socketSlices; i++ {
		mode, traced := i%2, i%4 == 0 // open+spans, closed, open, closed
		sys0, ctx0, cpu0 := procIOSyscalls(self), procCtxSwitches(self, genTids), procCPUNs([]int{self}, genTids)
		stats := load.slice(mode, serveSliceNs, traced)
		sys, ctx := procIOSyscalls(self)-sys0, procCtxSwitches(self, genTids)-ctx0
		stackCPU := procCPUNs([]int{self}, genTids) - cpu0 // everything in this process but the generator's threads
		d, dBy := doneOf(stats)
		done += d
		for j := range stats {
			userBytes += stats[j].userBytes
		}
		if mode == modeClosed {
			thrAll = append(thrAll, float64(dBy)/(float64(serveSliceNs)/1e9))
		} else {
			p50, p99, _ := openSliceLatency(stats)
			p50All, p99All = append(p50All, p50), append(p99All, p99)
			srvCPU = append(srvCPU, ratio(float64(stackCPU)/1e3, float64(d)))
			if traced {
				p50On = append(p50On, p50)
			} else {
				p50Off = append(p50Off, p50)
			}
			var cpu, own int64
			for j := range stats {
				cpu += stats[j].cpuNs
				own += stats[j].reads + stats[j].writes
				sloMiss += stats[j].sloMiss
				openSent += stats[j].sent
				rtts = append(rtts, stats[j].rtt...)
			}
			lateP99 = append(lateP99, quantileU32(sortedU32(stats[0].late, stats[1].late), 0.99)/1e3)
			verRTT = append(verRTT, quantileU32(sortedU32(stats[0].versionRTT, stats[1].versionRTT), 0.50)/1e3)
			genCPU = append(genCPU, ratio(float64(cpu)/1e3, float64(d)))
			sysPerOp = append(sysPerOp, ratio(float64(sys-own), float64(d)))
			ctxPerOp = append(ctxPerOp, ratio(float64(ctx), float64(d)))
		}
		if w.durable {
			ms, err := s.applyDelayMs(th, fth, uint64(i+1))
			if err != nil {
				return nil, err
			}
			delays = append(delays, ms)
		}
		load.gap(i%4 == 3)
	}
	windowS := time.Since(t0).Seconds()
	close(stopLag)
	<-lagDone

	// Counters at the closing edge.
	eng := s.rt.Engine().Snapshot().Sub(eng0)
	kv1, err := s.store.Stats(th)
	if err != nil {
		return nil, err
	}
	srv1, err := ctl.Stats()
	if err != nil {
		return nil, err
	}
	sw1, htmShards := s.switches()
	statDelta := func(k string) float64 {
		a, _ := strconv.ParseFloat(srv0[k], 64)
		b, _ := strconv.ParseFloat(srv1[k], 64)
		return b - a
	}
	tmCounterMetrics(m, eng)
	m["stack.ops_per_s"] = median(thrAll)
	m["stack.lat_p50_us"] = median(p50All)
	m["stack.lat_p99_us"] = median(p99All)
	m["stack.cpu_us_per_op"] = median(srvCPU)
	m["kvstore.hit_ratio"] = ratio(float64(kv1.Hits-kv0.Hits), float64(kv1.Gets-kv0.Gets))
	m["kvstore.evictions_per_op"] = ratio(float64(kv1.Evictions-kv0.Evictions), float64(done))
	m["server.fused_ops_per_batch"] = ratio(statDelta("fused_ops"), statDelta("fused_batches"))
	m["server.shed_ratio"] = ratio(statDelta("shed_ops"), float64(done)+statDelta("shed_ops"))
	m["server.version_rtt_us"] = median(verRTT)
	m["server.syscalls_per_op"] = median(sysPerOp)
	m["server.ctxsw_per_op"] = median(ctxPerOp)
	m["adaptive.switches"] = float64(sw1 - sw0)
	m["adaptive.htm_shards_at_end"] = float64(htmShards)
	m["loadgen.late_p99_us"] = median(lateP99)
	m["loadgen.cpu_us_per_op"] = median(genCPU)
	m["loadgen.slo_miss_ratio"] = ratio(float64(sloMiss), float64(openSent))
	m["loadgen.stream_hash"] = float64(st.hash & (1<<48 - 1))
	m["trace.overhead_ratio"] = ratio(median(p50On), median(p50Off))
	if w.durable {
		ws := s.wlog.Stats()
		m["wal.appends_per_fsync"] = ratio(float64(ws.Appends-wal0.Appends), float64(ws.Fsyncs-wal0.Fsyncs))
		m["wal.fsyncs_per_s"] = float64(ws.Fsyncs-wal0.Fsyncs) / windowS
		m["wal.bytes_per_user_byte"] = ratio(float64(ws.Bytes-wal0.Bytes), float64(userBytes))
		m["wal.recover_us_per_rec"] = ratio(float64(s.recoverNs)/1e3, float64(s.recovered))
		sort.Float64s(lags)
		m["repl.lag_recs_p50"] = median(lags)
		if len(lags) > 0 {
			m["repl.lag_recs_max"] = lags[len(lags)-1]
		}
		m["repl.apply_delay_ms_p50"] = median(delays)
	}

	// Direct calls: one goroutine per generator connection, like the
	// server's one executor per connection.
	until := int64(time.Since(load.base)) + int64(seconds)*2e8
	spans := make([][]reqSpan, genConns)
	errs := make([]error, genConns)
	var wg sync.WaitGroup
	for c := range spans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spans[c], errs[c] = s.directCalls(st, c, load.base, until, make([]reqSpan, 0, 1<<18))
		}(c)
	}
	wg.Wait()
	var all []reqSpan
	for c := range spans {
		if errs[c] != nil {
			return nil, fmt.Errorf("direct calls: %w", errs[c])
		}
		all = append(all, spans[c]...)
		res.attempted += len(spans[c])
	}
	every := func(*reqSpan) bool { return true }
	stored := func(sp *reqSpan) bool { return sp.kind != kVersion }
	mutation := func(sp *reqSpan) bool { return sp.kind == kSet || sp.kind == kDel || sp.kind == kSentSet }
	m["server.parse_ns"] = medianOf(all, every, func(sp *reqSpan) int64 { return sp.t1 - sp.t0 })
	m["kvstore.tx_us_p50"] = medianOf(all, stored, func(sp *reqSpan) int64 { return sp.t2 - sp.t1 }) / 1e3
	if w.durable {
		m["wal.ticket_wait_us_p50"] = medianOf(all, mutation, func(sp *reqSpan) int64 { return sp.t3 - sp.t2 }) / 1e3
	}
	stages := medianOf(all, every, func(sp *reqSpan) int64 { return sp.t3 - sp.t0 }) / 1e3
	m["server.unattributed_us"] = median(p50All) - stages
	res.notef("socket path: lat_p50_us=%.1f over %d open slices; direct calls: %d requests, stage sum p50=%.2f us; unattributed=%.1f us",
		median(p50All), len(p50All), len(all), stages, m["server.unattributed_us"])

	// Fixed-count probes of each layer alone.
	coreLayerProbes(m)
	if err := storeLayerProbes(m, st); err != nil {
		return nil, err
	}
	if w.durable {
		if err := logLayerProbes(m, st, dir); err != nil {
			return nil, err
		}
	}
	m["host.calib_alu_ns"] = median(load.probe.aluNs)
	m["host.calib_mem_ns"] = median(load.probe.memNs)

	tw := newTraceWriter()
	for i := 0; i < len(all) && i < maxSpanLines/8; i++ {
		sp, id := &all[i], uint64(1)<<48|uint64(i+1)
		kind := kindNames[sp.kind]
		tw.add(span{ID: id, Name: "req", Start: sp.t0, End: sp.t3, Attr: kind})
		tw.add(span{ID: id, Name: "server.parse", Parent: "req", Start: sp.t0, End: sp.t1, Attr: kind})
		tw.add(span{ID: id, Name: "kvstore.tx", Parent: "req", Start: sp.t1, End: sp.t2, Attr: kind})
		tw.add(span{ID: id, Name: "wal.wait", Parent: "req", Start: sp.t2, End: sp.t3, Attr: kind})
	}
	for i := range rtts {
		tw.add(span{ID: rtts[i].id, Name: "loadgen.rtt", Start: rtts[i].start, End: rtts[i].end})
	}
	return res, tw.write(traceFile(outDir, w.name))
}
