package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"gotle/internal/epoch"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/logrec"
	"gotle/internal/memseg"
	"gotle/internal/repl"
	"gotle/internal/stm"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Fixed-count timing loops over each layer's public functions. They answer
// "what does one call into this layer cost on its own", the number a change
// to that layer should move first.

// timeLoop calls fn n times per repetition and returns the median ns per call
// over reps repetitions.
func timeLoop(reps, n int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// coreLayerProbes times the TM core, which every workload runs on: an empty
// elided critical section per mechanism, bare STM and HTM transactions, the
// allocator, and a quiescence with one peer in and out of transactions.
func coreLayerProbes(m map[string]float64) {
	for _, pname := range probePolicies {
		policy, _ := tle.ParsePolicy(pname)
		rt := tle.New(policy, tle.Config{MemWords: 1 << 16})
		mu, th := rt.NewMutex("probe"), rt.NewThread()
		body := func(tm.Tx) error { return nil }
		m["tle.do_ns."+pname] = timeLoop(5, 100_000, func() { mu.Do(th, body) })
		th.Release()
		rt.Close()
	}

	// A lone transaction cannot conflict, so none of these aborts.
	smem := memseg.New(1 << 16)
	sbase, _ := smem.Alloc(64)
	stx := stm.New(smem, stm.Config{OrecSizeLog2: 12}).NewTx(1)
	m["stm.ro10_ns"] = timeLoop(5, 100_000, func() {
		stx.Begin()
		for j := memseg.Addr(0); j < 10; j++ {
			stx.Load(sbase + j)
		}
		stx.Commit()
	})
	v := uint64(0)
	m["stm.w4_ns"] = timeLoop(5, 100_000, func() {
		v++
		stx.Begin()
		for j := memseg.Addr(0); j < 4; j++ {
			stx.Store(sbase+j, v)
		}
		stx.Commit()
	})
	hmem := memseg.New(1 << 16)
	hbase, _ := hmem.Alloc(64)
	htx := htm.New(hmem, htm.Config{EventAbortPerMillion: -1}).NewTx(1)
	m["htm.rmw_ns"] = timeLoop(5, 100_000, func() {
		htx.Begin()
		htx.Store(hbase, htx.Load(hbase)+1)
		htx.Commit()
	})
	amem := memseg.New(1 << 20)
	m["memseg.alloc_free_ns"] = timeLoop(5, 100_000, func() {
		a, _ := amem.Alloc(4)
		amem.Free(a)
	})

	// The peer must really be running next to the caller: on a busy 2-vCPU
	// box it sometimes is not scheduled for the few milliseconds a pass
	// takes, and the pass then times an idle manager (6 ns instead of 100).
	// A pass counts only if the peer got through at least as many
	// transactions as the caller did quiescences.
	mgr := epoch.NewManager()
	self, peer := mgr.Register(), mgr.Register()
	var stop atomic.Bool
	var peerTxs atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			peer.Enter()
			peer.Exit()
			peerTxs.Add(1)
		}
	}()
	var sc epoch.Scratch
	const passes, perPass = 5, 50_000
	var ns []float64
	for try := 0; len(ns) < passes && try < 8*passes; try++ {
		before, t0 := peerTxs.Load(), time.Now()
		for i := 0; i < perPass; i++ {
			mgr.QuiesceWith(self, &sc)
		}
		if d := time.Since(t0); peerTxs.Load()-before >= perPass {
			ns = append(ns, float64(d.Nanoseconds())/perPass)
		}
	}
	m["epoch.quiesce_ns.t2"] = median(ns)
	stop.Store(true)
	<-done
}

// newServeRuntime builds a runtime the way cmd/tleserved does for workload w:
// hybrid with the adaptive ladder's starting policy for the served stack, or
// pinned to one policy for a per-policy probe.
func newServeRuntime(w *workload, policy tle.Policy, hybrid bool) *tle.Runtime {
	return tle.New(policy, tle.Config{
		MemWords:        serveMemWords,
		Hybrid:          hybrid,
		Observe:         true,
		DeferredReclaim: serveDeferReclaim,
		StripeShift:     serveStripeShift,
		HTM:             htm.Config{WriteCapacityLines: w.htmWriteLines, EventAbortPerMillion: serveHTMEventPPM},
	})
}

func newServeStore(w *workload, rt *tle.Runtime) *kvstore.Store {
	return kvstore.New(rt, kvstore.Config{Shards: serveShards, MaxItemsPerShard: w.capacity})
}

// storeLayerProbes times kvstore's public operations under each elided
// mechanism, on a store sized and filled like the workload's and fed the
// workload's keys and value sizes.
func storeLayerProbes(m map[string]float64, st *stream) error {
	w := st.w
	resident := min(w.keys, serveShards*w.capacity)
	valOf := func(k int) []byte { return st.value(k, w.valSizes[k%len(w.valSizes)]) }
	for _, pname := range probePolicies {
		policy, _ := tle.ParsePolicy(pname)
		rt := newServeRuntime(w, policy, false)
		store, th := newServeStore(w, rt), rt.NewThread()
		for k := 0; k < resident; k++ {
			if err := store.SetItem(th, st.keys[k], valOf(k), 0); err != nil {
				return fmt.Errorf("store probe prefill: %w", err)
			}
		}
		var buf []byte
		var err error
		i := 0
		next := func() int { i++; return i * 7919 % resident }
		m["kvstore.get_ns."+pname] = timeLoop(5, 20_000, func() {
			buf, _, _, err = store.GetItemAppend(th, st.keys[next()], buf[:0])
		})
		m["kvstore.set_ns."+pname] = timeLoop(5, 20_000, func() {
			k := next()
			_, err = store.SetItemD(th, st.keys[k], valOf(k), 0)
		})
		const width = 8 // a typical fused run under closed-loop load
		var ops [width]kvstore.BatchOp
		var res [width]kvstore.BatchResult
		var sc kvstore.BatchScratch
		m["kvstore.batch_ns_per_op."+pname] = timeLoop(5, 20_000/width, func() {
			for j := range ops {
				k := next()
				ops[j] = kvstore.BatchOp{Verb: kvstore.BatchSet, Key: st.keys[k], Val: valOf(k)}
			}
			err = store.MutateBatch(th, ops[:], res[:], &sc)
		}) / width
		k := 0 // each key is deleted once, so every delete finds its item
		m["kvstore.delete_ns."+pname] = timeLoop(5, min(resident, 20_000)/5, func() {
			_, _, err = store.DeleteD(th, st.keys[k])
			k++
		})
		th.Release()
		rt.Close()
		if err != nil {
			return fmt.Errorf("store probe (%s): %w", pname, err)
		}
	}
	return nil
}

// probeRecords is a run of log records shaped like the workload's mutations.
func probeRecords(st *stream, n int) ([]logrec.Record, []int) {
	router := newShardSeq()
	defer router.close()
	recs, shards := make([]logrec.Record, 0, n), make([]int, 0, n)
	for _, o := range st.ops[0] {
		if len(recs) == n {
			break
		}
		rec := logrec.Record{Key: st.keys[o.key()]}
		switch o.kind() {
		case kSet:
			rec.Op, rec.Val = logrec.OpSet, st.value(o.key(), st.w.valSizes[o.size()])
		case kDel:
			rec.Op = logrec.OpDelete
		default:
			continue
		}
		var sh int
		sh, rec.Seq = router.next(rec.Key)
		recs, shards = append(recs, rec), append(shards, sh)
	}
	return recs, shards
}

// logLayerProbes times the durability and replication layers on their own:
// record codec, a WAL append (the call, not the fsync it schedules), a
// replication publish, and a follower applying a retained backlog.
func logLayerProbes(m map[string]float64, st *stream, dir string) error {
	const n = 20_000
	recs, shards := probeRecords(st, n)
	if len(recs) < n {
		return fmt.Errorf("log probes: stream has only %d mutations", len(recs))
	}
	var frame []byte
	i := 0
	m["logrec.encode_ns"] = timeLoop(5, n/5, func() {
		frame = logrec.AppendRecord(frame[:0], recs[i])
		i++
	})
	var err error
	m["logrec.decode_ns"] = timeLoop(5, n/5, func() { _, _, err = logrec.DecodeRecord(frame) })
	if err != nil {
		return err
	}

	l, err := wal.Open(filepath.Join(dir, "wal-probe"), serveShards, wal.Options{})
	if err != nil {
		return err
	}
	if _, err := l.Recover(nil); err != nil {
		l.Close()
		return err
	}
	var last wal.Ticket
	i = 0
	m["wal.append_ns"] = timeLoop(5, n/5, func() {
		last = l.Append(shards[i], recs[i])
		i++
	})
	if err := last.Wait(); err != nil {
		l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}

	src := repl.NewSource(serveShards, nil)
	i = 0
	m["repl.publish_ns"] = timeLoop(5, n/5, func() {
		src.Publish(shards[i], recs[i])
		i++
	})
	addr, err := src.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer src.Close(time.Second)
	rt := newServeRuntime(st.w, serveStartPolicy, true)
	defer rt.Close()
	store := newServeStore(st.w, rt)
	fw := repl.NewFollower(rt, store, addr.String(), nil)
	t0 := time.Now()
	fw.Start()
	defer fw.Stop()
	err = pollUntil(30*time.Second, func() (bool, error) {
		applied := uint64(0)
		for sh := 0; sh < store.ShardCount(); sh++ {
			applied += fw.Applied(sh)
		}
		return applied == n, nil
	})
	m["repl.catchup_us_per_rec"] = float64(time.Since(t0).Microseconds()) / n
	return err
}
