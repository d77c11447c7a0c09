// Cache: a memcached-style workload (the paper's earlier TLE case study,
// referenced throughout Sections V–VI) on the sharded kvstore. Runs a
// mixed get/set/delete workload under each policy, checks every policy
// serves identical data, and prints cache and TM statistics side by side.
//
//	go run ./examples/cache
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

func main() {
	log.SetFlags(0)
	const threads, opsPerThread = 4, 3000

	for _, policy := range tle.Policies {
		r := tle.New(policy, tle.Config{MemWords: 1 << 21})
		store := kvstore.New(r, kvstore.Config{Shards: 4, MaxItemsPerShard: 128})
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			th := r.NewThread()
			rng := rand.New(rand.NewSource(int64(w)))
			wg.Add(1)
			go func(th *tm.Thread, rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < opsPerThread; i++ {
					key := []byte(fmt.Sprintf("user:%d", rng.Intn(512)))
					switch rng.Intn(10) {
					case 0:
						if _, err := store.Delete(th, key); err != nil {
							log.Fatalf("%s: delete: %v", policy, err)
						}
					case 1, 2:
						if err := store.Set(th, key, key); err != nil {
							log.Fatalf("%s: set: %v", policy, err)
						}
					default:
						v, ok, err := store.Get(th, key)
						if err != nil {
							log.Fatalf("%s: get: %v", policy, err)
						}
						if ok && string(v) != string(key) {
							log.Fatalf("%s: key %s returned foreign value %q", policy, key, v)
						}
					}
				}
			}(th, rng)
		}
		wg.Wait()
		elapsed := time.Since(start)

		th := r.NewThread()
		cs, err := store.Stats(th)
		if err != nil {
			log.Fatal(err)
		}
		n, _ := store.Len(th)
		ts := r.Engine().Snapshot()
		hitRate := 0.0
		if cs.Gets > 0 {
			hitRate = 100 * float64(cs.Hits) / float64(cs.Gets)
		}
		fmt.Printf("%-11s %6.0f ops/ms  items=%d gets=%d (%.0f%% hit) sets=%d evictions=%d\n",
			policy, float64(threads*opsPerThread)/float64(elapsed.Milliseconds()+1),
			n, cs.Gets, hitRate, cs.Sets, cs.Evictions)
		fmt.Printf("            tm: txns=%d aborts=%.2f%% serial=%.2f%% quiesces=%d noquiesce=%d\n\n",
			ts.Starts, 100*ts.AbortRate(), 100*ts.SerialRate(), ts.Quiesces, ts.NoQuiesce)
	}
}
