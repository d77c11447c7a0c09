package tle

import (
	"sync/atomic"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/tm"
	"gotle/internal/tmds"
)

// Scaling benchmarks: critical sections on a shared set through Mutex.Do
// from b.RunParallel goroutines. Read them at -cpu 1,2 and compare ops/s —
// ns/op under RunParallel is wall time over all goroutines' operations, so
// perfect scaling halves it.

type scalingSet interface {
	Insert(tx tm.Tx, key int64) bool
	Remove(tx tm.Tx, key int64) bool
	Contains(tx tm.Tx, key int64) bool
}

var scalingPolicies = []Policy{PolicyPthread, PolicySTMCondVar, PolicySTMCondVarNoQ, PolicyHTMCondVar}

// benchScaling runs lookups (readOnly) or the Figure 5 mix (half lookups, a
// quarter inserts, a quarter removes) on a half-full set under each policy.
func benchScaling(b *testing.B, keys int64, readOnly bool, build func(*tm.Engine) scalingSet) {
	for _, p := range scalingPolicies {
		b.Run(p.String(), func(b *testing.B) {
			rt := New(p, Config{MemWords: 1 << 18, HTM: htm.Config{EventAbortPerMillion: -1}})
			mu, set := rt.NewMutex("set"), build(rt.Engine())
			th := rt.NewThread()
			for k := int64(0); k < keys; k += 2 {
				if err := mu.Do(th, func(tx tm.Tx) error { set.Insert(tx, k); return nil }); err != nil {
					b.Fatal(err)
				}
			}
			th.Release()
			before := rt.Engine().Snapshot()
			var workers atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := rt.NewThread()
				defer th.Release()
				rng := workers.Add(1) * 0x9E3779B97F4A7C15 // xorshift state, per goroutine
				var key int64
				var op uint64
				body := func(tx tm.Tx) error {
					removed := false
					switch {
					case readOnly || op < 2:
						set.Contains(tx, key)
					case op == 2:
						set.Insert(tx, key)
					default:
						removed = set.Remove(tx, key)
					}
					if !removed {
						// Listing 2's discipline: nothing was privatized, so
						// stm-cv-noq may skip the quiescence.
						tx.NoQuiesce()
					}
					return nil
				}
				for pb.Next() {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key, op = int64(rng>>8)%keys, rng&3
					if err := mu.Do(th, body); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if p.Transactional() {
				// What kept an elided cell from scaling, per operation.
				s, n := rt.Engine().Snapshot().Sub(before), float64(b.N)
				b.ReportMetric(float64(s.ConflictAborts())/n, "aborts/op")
				b.ReportMetric(float64(s.SerialRuns)/n, "serial/op")
				b.ReportMetric(float64(s.QuiesceTime.Nanoseconds())/n, "quiesce-ns/op")
			}
		})
	}
}

// BenchmarkDisjointScaling: read-only lookups on a hash set. No two of
// these critical sections conflict, so under elision they should run side
// by side, while the lock baseline serializes by construction. An elided
// policy that does not scale here is sharing a modified cache line between
// transactions that share no data (stm-cv still quiesces after every
// commit, which is such a line by design).
func BenchmarkDisjointScaling(b *testing.B) {
	benchScaling(b, 256, true, func(e *tm.Engine) scalingSet { return tmds.NewHash(e, 256) })
}

// BenchmarkEmptyDo: an empty body through Mutex.Do, the fixed cost of a
// critical section under each policy — the benchmark's tle.do_ns probe.
// Each goroutine has its own thread and mutex, so at -cpu 2 nothing is
// shared but what the policy shares.
func BenchmarkEmptyDo(b *testing.B) {
	body := func(tm.Tx) error { return nil }
	for _, p := range scalingPolicies {
		b.Run(p.String(), func(b *testing.B) {
			rt := New(p, Config{MemWords: 1 << 16})
			b.RunParallel(func(pb *testing.PB) {
				mu, th := rt.NewMutex("empty"), rt.NewThread()
				defer th.Release()
				for pb.Next() {
					if err := mu.Do(th, body); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkSetsScaling: the Figure 5 mix on each of its three structures,
// the cells of the benchmark's tm-sets workload at a thread count of one's
// choosing (EXPERIMENTS.md "Scaling, 1 → 2 threads"). The extra columns say
// where an elided cell's time went besides running the section.
func BenchmarkSetsScaling(b *testing.B) {
	for _, st := range []struct {
		name  string
		keys  int64
		build func(*tm.Engine) scalingSet
	}{
		{"list", 64, func(e *tm.Engine) scalingSet { return tmds.NewList(e) }},
		{"hash", 256, func(e *tm.Engine) scalingSet { return tmds.NewHash(e, 256) }},
		{"tree", 256, func(e *tm.Engine) scalingSet { return tmds.NewTree(e) }},
	} {
		b.Run(st.name, func(b *testing.B) { benchScaling(b, st.keys, false, st.build) })
	}
}
