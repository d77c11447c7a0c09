// Benchmarks regenerating each figure of the paper's evaluation
// (Section VII) as testing.B benchmarks. These run at smoke scale so that
// `go test -bench=. -benchmem` finishes in minutes; cmd/figures runs the
// same experiments at configurable scale and renders the paper-style
// tables recorded in EXPERIMENTS.md.
package gotle

import (
	"fmt"
	"testing"
	"time"

	"gotle/internal/harness"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/pbzip"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/tmds"
	"gotle/internal/video"
	"gotle/internal/x265sim"
)

func benchRuntime(p tle.Policy) *tle.Runtime {
	return tle.New(p, tle.Config{
		MemWords: 1 << 21,
		HTM:      htm.Config{EventAbortPerMillion: 5},
	})
}

// BenchmarkFig2Compress: PBZip2 compression time per policy and worker
// count (Figure 2 a–c at smoke scale).
func BenchmarkFig2Compress(b *testing.B) {
	input := pbzip.SyntheticFile(512<<10, 1)
	for _, p := range tle.Policies {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("policy=%s/threads=%d", p, workers), func(b *testing.B) {
				r := benchRuntime(p)
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pbzip.Compress(r, input, pbzip.Config{
						Workers: workers, BlockSize: 100_000,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig2Decompress: the decompression panels (Figure 2 d–f).
func BenchmarkFig2Decompress(b *testing.B) {
	input := pbzip.SyntheticFile(512<<10, 1)
	pre := benchRuntime(tle.PolicyPthread)
	c, err := pbzip.Compress(pre, input, pbzip.Config{Workers: 4, BlockSize: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range tle.Policies {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("policy=%s/threads=%d", p, workers), func(b *testing.B) {
				r := benchRuntime(p)
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pbzip.Decompress(r, c.Output, pbzip.Config{
						Workers: workers, BlockSize: 100_000,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig3X265: x265 encode time per policy and worker count
// (Figure 3 at smoke scale); speedup = pthread/1-thread time over a cell.
func BenchmarkFig3X265(b *testing.B) {
	frames := video.Generate(96, 64, 4, 1)
	for _, p := range tle.Policies {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("policy=%s/threads=%d", p, workers), func(b *testing.B) {
				r := benchRuntime(p)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := x265sim.Encode(r, frames, x265sim.Config{
						Workers: workers, FrameThreads: 3,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4AbortRates: the Figure 4 metric — HTM abort and serial-
// fallback rates on the x265 workload — reported as benchmark metrics.
func BenchmarkFig4AbortRates(b *testing.B) {
	frames := video.Generate(96, 64, 4, 1)
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", workers), func(b *testing.B) {
			r := benchRuntime(tle.PolicyHTMCondVar)
			before := r.Engine().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x265sim.Encode(r, frames, x265sim.Config{
					Workers: workers, FrameThreads: 3,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := r.Engine().Snapshot().Sub(before)
			b.ReportMetric(100*s.AbortRate(), "abort%")
			b.ReportMetric(100*s.SerialRate(), "serial%")
		})
	}
}

// BenchmarkFig5Sets: the quiescence microbenchmarks (Figure 5): ops/sec on
// each structure under the three STM quiescence configurations.
func BenchmarkFig5Sets(b *testing.B) {
	type stCase struct {
		name     string
		keyRange int64
		build    func(e *tm.Engine) fig5set
	}
	structures := []stCase{
		{"list", 64, func(e *tm.Engine) fig5set { return tmds.NewList(e) }},
		{"hash", 256, func(e *tm.Engine) fig5set { return tmds.NewHash(e, 256) }},
		{"tree", 256, func(e *tm.Engine) fig5set { return tmds.NewTree(e) }},
	}
	for _, st := range structures {
		for _, v := range harness.Fig5Variants(1 << 20) {
			b.Run(fmt.Sprintf("%s/%s", st.name, v.Name), func(b *testing.B) {
				e := tm.New(v.Cfg)
				set := st.build(e)
				th := e.NewThread()
				// 50% pre-fill.
				for k := int64(0); k < st.keyRange; k += 2 {
					k := k
					if err := e.Atomic(th, func(tx tm.Tx) error {
						set.Insert(tx, k)
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := int64(i*2654435761) % st.keyRange
					if k < 0 {
						k += st.keyRange
					}
					op := i % 4
					if err := e.Atomic(th, func(tx tm.Tx) error {
						privatized := false
						switch op {
						case 0:
							set.Insert(tx, k)
						case 1:
							privatized = set.Remove(tx, k)
						default:
							set.Contains(tx, k)
						}
						if !privatized {
							tx.NoQuiesce()
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

type fig5set interface {
	Insert(tx tm.Tx, key int64) bool
	Remove(tx tm.Tx, key int64) bool
	Contains(tx tm.Tx, key int64) bool
}

// BenchmarkListing2ProducerConsumer: the Listing-2 pattern — a producer
// that never privatizes feeding consumers through an elided queue — with
// and without the TM.NoQuiesce discipline (the paper's motivating case for
// the API).
func BenchmarkListing2ProducerConsumer(b *testing.B) {
	for _, honor := range []bool{false, true} {
		name := "quiesce-all"
		if honor {
			name = "select-noquiesce"
		}
		b.Run(name, func(b *testing.B) {
			e := tm.New(tm.Config{
				Mode: tm.ModeSTM, MemWords: 1 << 20,
				Quiesce: tm.QuiesceAll, HonorNoQuiesce: honor,
			})
			q := tmds.NewRing(e, 64)
			prod := e.NewThread()
			cons := e.NewThread()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for n := 0; n < b.N; {
					if err := e.Atomic(cons, func(tx tm.Tx) error {
						if _, ok := q.Dequeue(tx); !ok {
							tx.NoQuiesce() // nothing extracted, nothing privatized
							return nil
						}
						return nil
					}); err != nil {
						b.Error(err)
						return
					}
					n++
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Atomic(prod, func(tx tm.Tx) error {
					tx.NoQuiesce() // the producer never privatizes
					q.Enqueue(tx, uint64(i))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkAblationRetryBudget: HTM retry budget before serial fallback
// (DESIGN.md ablation; Section VII.A conjectures tuning would help).
func BenchmarkAblationRetryBudget(b *testing.B) {
	frames := video.Generate(96, 64, 3, 1)
	for _, budget := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("retries=%d", budget), func(b *testing.B) {
			r := tle.New(tle.PolicyHTMCondVar, tle.Config{
				MemWords:   1 << 21,
				MaxRetries: budget,
				HTM:        htm.Config{EventAbortPerMillion: 50},
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x265sim.Encode(r, frames, x265sim.Config{
					Workers: 4, FrameThreads: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCondvarChurn: the Section VI.d handoff experiment as a bench —
// one ping-pong handoff per iteration, per policy.
func BenchmarkCondvarChurn(b *testing.B) {
	for _, p := range tle.Policies {
		b.Run(p.String(), func(b *testing.B) {
			r := benchRuntime(p)
			m := r.NewMutex("pingpong")
			cvA, cvB := r.NewCond(), r.NewCond()
			token := r.Engine().Alloc(1)
			done := make(chan struct{})
			peer := r.NewThread()
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if err := m.Await(peer, cvB, time.Millisecond, func(tx tm.Tx) error {
						if tx.Load(token)%2 != 1 {
							tx.NoQuiesce()
							tx.Retry()
						}
						tx.Store(token, tx.Load(token)+1)
						cvA.SignalTx(tx)
						return nil
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			self := r.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Await(self, cvA, time.Millisecond, func(tx tm.Tx) error {
					if tx.Load(token)%2 != 0 {
						tx.NoQuiesce()
						tx.Retry()
					}
					tx.Store(token, tx.Load(token)+1)
					cvB.SignalTx(tx)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkKVCache: the memcached-style store under three policies
// (90% get / 10% set over a warm working set).
func BenchmarkKVCache(b *testing.B) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVarNoQ, tle.PolicyHTMCondVar} {
		b.Run(p.String(), func(b *testing.B) {
			r := benchRuntime(p)
			store := kvstore.New(r, kvstore.Config{Shards: 8, MaxItemsPerShard: 512})
			th := r.NewThread()
			keys := make([][]byte, 512)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("key:%d", i))
				if err := store.Set(th, keys[i], keys[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if i%10 == 0 {
					if err := store.Set(th, k, k); err != nil {
						b.Fatal(err)
					}
				} else if _, _, err := store.Get(th, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuiescenceCost: the raw cost of the epoch wait as concurrency
// grows — the "cache misses linear in the number of threads" of
// Section IV.C.
func BenchmarkQuiescenceCost(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			e := tm.New(tm.Config{Mode: tm.ModeSTM, MemWords: 1 << 18, Quiesce: tm.QuiesceAll})
			a := e.Alloc(2)
			// Background transactions keep the epoch slots busy.
			stop := make(chan struct{})
			for i := 0; i < threads-1; i++ {
				th := e.NewThread()
				go func(th *tm.Thread) {
					for {
						select {
						case <-stop:
							return
						default:
						}
						e.Atomic(th, func(tx tm.Tx) error {
							tx.Load(a)
							return nil
						})
					}
				}(th)
			}
			th := e.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Atomic(th, func(tx tm.Tx) error {
					tx.Store(a, uint64(i))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			time.Sleep(time.Millisecond)
		})
	}
}
