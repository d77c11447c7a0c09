package tm

import (
	"math/rand"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/memseg"
)

// TestThreadCacheChurn: workers allocate and free, inside sections and
// outside them, hand blocks to one another, and every round free what they
// hold, past the cache's bound, and release their thread for a new one, so
// blocks move between caches, the shared stacks and parked caches. Every holder writes its own tag over the whole
// block and checks it before letting go: a block handed to two holders at
// once shows up as a foreign tag, or as a fresh block that is not zero.
// Once every thread is released, LiveWords is back at its baseline.
func TestThreadCacheChurn(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"stm", Config{Mode: ModeSTM}},
		{"stm-deferred", Config{Mode: ModeSTM, Quiesce: QuiesceNone, DeferredReclaim: true}},
		{"htm", Config{Mode: ModeHTM, HTM: htm.Config{EventAbortPerMillion: -1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.MemWords = 1 << 18
			e := New(cfg)
			mem := e.Memory()
			base := mem.LiveWords()

			type held struct {
				a   memseg.Addr
				tag uint64
			}
			own := func(a memseg.Addr, tag uint64) held {
				for i := 0; i < mem.BlockSize(a); i++ {
					mem.Store(a+memseg.Addr(i), tag)
				}
				return held{a, tag}
			}
			fresh := func(a memseg.Addr) bool {
				for i := 0; i < mem.BlockSize(a); i++ {
					if mem.Load(a+memseg.Addr(i)) != 0 {
						return false
					}
				}
				return true
			}
			intact := func(h held) bool {
				for i := 0; i < mem.BlockSize(h.a); i++ {
					if mem.Load(h.a+memseg.Addr(i)) != h.tag {
						return false
					}
				}
				return true
			}

			const workers, rounds, ops, maxHeld = 4, 10, 200, 64
			handoff := make(chan held, workers*maxHeld) // senders never block: a full channel leaves the block with them
			var wg sync.WaitGroup
			for w := 1; w <= workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					seq := uint64(0)
					tag := func() uint64 { seq++; return uint64(w)<<32 | seq }
					var mine []held
					take := func() (held, bool) {
						h := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if !intact(h) {
							t.Errorf("worker %d: block %d lost its tag %#x while held", w, h.a, h.tag)
							return h, false
						}
						return h, true
					}
					for r := 0; r < rounds; r++ {
						th := e.NewThread()
						for i := 0; i < ops; i++ {
							op := rng.Intn(4)
							if len(mine) == 0 && (op == 2 || op == 3) {
								op = 0
							} else if len(mine) >= maxHeld && op == 0 {
								op = 2
							}
							switch op {
							case 0: // allocate outside a section
								a := th.Alloc(1 + rng.Intn(160))
								if !fresh(a) {
									t.Errorf("worker %d: Alloc handed out block %d unzeroed", w, a)
									return
								}
								mine = append(mine, own(a, tag()))
							case 1: // allocate in a section, freeing a held block
								victim := memseg.Nil
								if len(mine) > 0 {
									h, ok := take()
									if !ok {
										return
									}
									victim = h.a
								}
								n := 1 + rng.Intn(160)
								var a memseg.Addr
								if err := e.Atomic(th, func(tx Tx) error {
									a = tx.Alloc(n)
									tx.Free(victim)
									return nil
								}); err != nil {
									t.Error(err)
									return
								}
								if !fresh(a) {
									t.Errorf("worker %d: tx.Alloc handed out block %d unzeroed", w, a)
									return
								}
								mine = append(mine, own(a, tag()))
							case 2: // free outside a section
								h, ok := take()
								if !ok {
									return
								}
								th.Free(h.a)
							case 3: // give a block away, or take one given
								if rng.Intn(2) == 0 {
									h, ok := take()
									if !ok {
										return
									}
									select {
									case handoff <- h:
									default:
										mine = append(mine, h) // nobody has room: keep it
									}
									break
								}
								select {
								case h := <-handoff:
									if !intact(h) {
										t.Errorf("worker %d: handed block %d lost its tag %#x", w, h.a, h.tag)
										return
									}
									mine = append(mine, own(h.a, tag()))
								default:
								}
							}
						}
						for len(mine) > 0 {
							h, ok := take()
							if !ok {
								return
							}
							th.Free(h.a)
						}
						th.Release()
					}
				}(w)
			}
			wg.Wait()
			close(handoff)
			for h := range handoff {
				e.Free(h.a)
			}
			if t.Failed() {
				return
			}
			if live := mem.LiveWords(); live != base {
				t.Fatalf("LiveWords = %d once every thread is released, want %d", live, base)
			}
		})
	}
}
