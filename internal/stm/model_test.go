package stm

import (
	"math/rand"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// Model check: random sequences of transactions (each a random mix of
// loads, stores, and a commit-or-abort decision) must leave memory exactly
// as a map-based reference executes the committed transactions. This
// checks write-through visibility, undo ordering, and read-own-write in one
// property.
func TestRandomOpSequencesMatchModel(t *testing.T) {
	t.Run("write-through", func(t *testing.T) {
		mem := memseg.New(1 << 16)
		s := New(mem, Config{OrecSizeLog2: 10})
		base, _ := mem.Alloc(64)
		tx := s.NewTx(1)
		model := make(map[memseg.Addr]uint64)
		rng := rand.New(rand.NewSource(77))

		for round := 0; round < 2000; round++ {
			pending := make(map[memseg.Addr]uint64)
			willAbort := rng.Intn(3) == 0
			func() {
				defer func() {
					if r := recover(); r != nil {
						if abortsig.From(r) == nil {
							panic(r)
						}
						tx.OnAbort()
					}
				}()
				tx.Begin()
				nOps := 1 + rng.Intn(8)
				for i := 0; i < nOps; i++ {
					a := base + memseg.Addr(rng.Intn(32))
					if rng.Intn(2) == 0 {
						// Load must see pending write, else model value.
						got := tx.Load(a)
						want, ok := pending[a]
						if !ok {
							want = model[a]
						}
						if got != want {
							t.Fatalf("round %d: Load(%d) = %d, want %d", round, a, got, want)
						}
					} else {
						v := rng.Uint64() % 1000
						tx.Store(a, v)
						pending[a] = v
					}
				}
				if willAbort {
					abortsig.Throw(stats.Explicit)
				}
				tx.Commit()
				for a, v := range pending {
					model[a] = v
				}
			}()
			// After every transaction, memory must equal the model.
			for a := memseg.Addr(0); a < 32; a++ {
				if got := mem.Load(base + a); got != model[base+a] {
					t.Fatalf("round %d (abort=%v): word %d = %d, model %d",
						round, willAbort, a, got, model[base+a])
				}
			}
		}
	})
}

// Interleaved model check with two transactions on DISJOINT words: their
// commits must compose regardless of interleaving.
func TestDisjointInterleavingsCompose(t *testing.T) {
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	a, _ := mem.Alloc(2)
	b, _ := mem.Alloc(2)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 500; round++ {
		t1 := s.NewTx(1)
		t2 := s.NewTx(2)
		t1.Begin()
		t2.Begin()
		v1, v2 := rng.Uint64()%100, rng.Uint64()%100
		// Interleave the two transactions' steps randomly.
		if rng.Intn(2) == 0 {
			t1.Store(a, v1)
			t2.Store(b, v2)
		} else {
			t2.Store(b, v2)
			t1.Store(a, v1)
		}
		if rng.Intn(2) == 0 {
			t1.Commit()
			t2.Commit()
		} else {
			t2.Commit()
			t1.Commit()
		}
		if mem.Load(a) != v1 || mem.Load(b) != v2 {
			t.Fatalf("round %d: disjoint commits interfered", round)
		}
	}
}
