package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

// KV throughput: the memcached-shaped workload (the paper's earlier TLE
// case study) across the five policies. Critical sections here are larger
// than PBZip2's queue operations — a chain walk and value copy per get, a
// list splice and stats update on top per set — so per-access STM
// instrumentation costs show clearly.

// KVConfig parameterises the cache sweep.
type KVConfig struct {
	Threads  []int
	Ops      int // per thread
	Keyspace int
	SetPct   int
	DelPct   int
	MemWords int
	Seed     int64
}

func (c KVConfig) withDefaults() KVConfig {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.Keyspace == 0 {
		c.Keyspace = 512
	}
	if c.SetPct == 0 {
		c.SetPct = 20
	}
	if c.DelPct == 0 {
		c.DelPct = 5
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 21
	}
	return c
}

// KVThroughput runs the sweep and reports operations/second.
func KVThroughput(cfg KVConfig) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("KV cache throughput (ops/sec): %d%% set, %d%% delete, %d keys",
			cfg.SetPct, cfg.DelPct, cfg.Keyspace),
		Header: []string{"threads"},
	}
	for _, p := range tle.Policies {
		t.Header = append(t.Header, p.String())
	}
	for _, threads := range cfg.Threads {
		row := []string{fmt.Sprintf("%d", threads)}
		for _, p := range tle.Policies {
			row = append(row, fmt.Sprintf("%.0f", runKVCell(p, threads, cfg)))
		}
		t.AddRow(row...)
	}
	return t
}

func runKVCell(p tle.Policy, threads int, cfg KVConfig) float64 {
	r := tle.New(p, tle.Config{
		MemWords: cfg.MemWords,
		HTM:      htm.Config{EventAbortPerMillion: 5},
	})
	store := kvstore.New(r, kvstore.Config{Shards: 8, MaxItemsPerShard: cfg.Keyspace})
	// Warm the working set.
	warm := r.NewThread()
	for i := 0; i < cfg.Keyspace; i++ {
		key := []byte(fmt.Sprintf("key:%d", i))
		if err := store.Set(warm, key, key); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		th := r.NewThread()
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		wg.Add(1)
		go func(th *tm.Thread, rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < cfg.Ops; i++ {
				key := []byte(fmt.Sprintf("key:%d", rng.Intn(cfg.Keyspace)))
				roll := rng.Intn(100)
				var err error
				switch {
				case roll < cfg.SetPct:
					err = store.Set(th, key, key)
				case roll < cfg.SetPct+cfg.DelPct:
					_, err = store.Delete(th, key)
				default:
					_, _, err = store.Get(th, key)
				}
				if err != nil {
					panic(fmt.Sprintf("kv %s: %v", p, err))
				}
			}
		}(th, rng)
	}
	wg.Wait()
	return float64(threads*cfg.Ops) / time.Since(start).Seconds()
}
