package stm

import (
	"math/rand"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
)

// setDedupMode configures tx for one of the three dedup modes by name;
// "adaptive" is the default and needs no call.
func setDedupMode(tx *Tx, mode string) {
	switch mode {
	case "eager":
		tx.SetReadDedup(true)
	case "off":
		tx.SetReadDedup(false)
	}
}

// Property: under eager dedup, after any sequence of loads the read set
// holds exactly one entry per distinct stripe touched — never one per raw
// load (mirrors the model_test.go style: a map of stripe indices is the
// reference).
func TestReadSetSizeEqualsDistinctStripes(t *testing.T) {
	t.Run("write-through", func(t *testing.T) {
		for _, stripeShift := range []int{0, 2} {
			mem := memseg.New(1 << 14)
			s := New(mem, Config{OrecSizeLog2: 10, StripeShift: stripeShift})
			base, _ := mem.Alloc(128)
			tx := s.NewTx(1)
			tx.SetReadDedup(true)
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < 200; round++ {
				distinct := make(map[uint32]bool)
				tx.Begin()
				nOps := 1 + rng.Intn(40)
				for i := 0; i < nOps; i++ {
					// Heavily skewed addresses: plenty of repeats.
					a := base + memseg.Addr(rng.Intn(16))
					tx.Load(a)
					distinct[s.orecs.Index(a)] = true
				}
				if got := tx.ReadSetSize(); got != len(distinct) {
					t.Fatalf("shift=%d round %d: ReadSetSize = %d, want %d distinct stripes",
						stripeShift, round, got, len(distinct))
				}
				tx.Commit()
			}
		}
	})
}

// The dedup hit counter must account for exactly the suppressed appends.
func TestDedupHitAccounting(t *testing.T) {
	mem := memseg.New(1 << 12)
	s := New(mem, Config{OrecSizeLog2: 8})
	a, _ := mem.Alloc(4)
	tx := s.NewTx(1)
	tx.SetReadDedup(true)
	tx.Begin()
	for i := 0; i < 10; i++ {
		tx.Load(a) // 1 logged read + 9 duplicates
	}
	tx.Load(a + 1) // distinct stripe
	tx.Commit()
	if got := tx.TakeDedupedReads(); got != 9 {
		t.Fatalf("TakeDedupedReads = %d, want 9", got)
	}
	if got := tx.TakeDedupedReads(); got != 0 {
		t.Fatalf("second TakeDedupedReads = %d, want 0", got)
	}
}

// SetReadDedup(false) restores the seed's append-every-load behaviour.
func TestDedupDisabledAppendsEveryLoad(t *testing.T) {
	mem := memseg.New(1 << 12)
	s := New(mem, Config{OrecSizeLog2: 8})
	a, _ := mem.Alloc(2)
	tx := s.NewTx(1)
	tx.SetReadDedup(false)
	tx.Begin()
	for i := 0; i < 7; i++ {
		tx.Load(a)
	}
	if got := tx.ReadSetSize(); got != 7 {
		t.Fatalf("ReadSetSize = %d with dedup off, want 7", got)
	}
	tx.Commit()
	if got := tx.TakeDedupedReads(); got != 0 {
		t.Fatalf("TakeDedupedReads = %d with dedup off, want 0", got)
	}
}

// dedupProbe drives one transaction through a fixed schedule of loads,
// stores and conflicting external commits, recording everything observable:
// loaded values, abort points and final memory. Validation outcomes must be
// identical across all dedup modes — the filter may only shrink the read
// set, never change what validates.
func dedupProbe(t *testing.T, mode string, seed int64) ([]uint64, []int, []uint64) {
	t.Helper()
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	base, _ := mem.Alloc(32)
	tx := s.NewTx(1)
	setDedupMode(tx, mode)
	writer := s.NewTx(2)
	rng := rand.New(rand.NewSource(seed))
	var values []uint64
	var abortedRounds []int
	for round := 0; round < 500; round++ {
		aborted := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if abortsig.From(r) == nil {
						panic(r)
					}
					tx.OnAbort()
					aborted = true
				}
			}()
			tx.Begin()
			nOps := 1 + rng.Intn(12)
			for i := 0; i < nOps; i++ {
				a := base + memseg.Addr(rng.Intn(8))
				switch rng.Intn(4) {
				case 0:
					tx.Store(a, rng.Uint64()%1000)
				case 1:
					// Conflicting external commit between our operations:
					// forces extends and validation failures. The writer may
					// itself abort on a stripe tx holds; roll it back then.
					w := base + memseg.Addr(rng.Intn(8))
					v := rng.Uint64() % 1000
					func() {
						defer func() {
							if r := recover(); r != nil {
								if abortsig.From(r) == nil {
									panic(r)
								}
								writer.OnAbort()
							}
						}()
						writer.Begin()
						writer.Store(w, v)
						writer.Commit()
					}()
					values = append(values, tx.Load(a))
				default:
					values = append(values, tx.Load(a))
				}
			}
			tx.Commit()
		}()
		if aborted {
			abortedRounds = append(abortedRounds, round)
		}
	}
	final := make([]uint64, 32)
	for i := range final {
		final[i] = mem.Load(base + memseg.Addr(i))
	}
	return values, abortedRounds, final
}

// Validation outcomes — which rounds abort, what every load returns, and
// the committed memory image — must not depend on the dedup mode.
func TestValidationOutcomesIdenticalWithAndWithoutDedup(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		vOff, aOff, mOff := dedupProbe(t, "off", seed)
		for _, mode := range []string{"adaptive", "eager"} {
			vOn, aOn, mOn := dedupProbe(t, mode, seed)
			if len(vOn) != len(vOff) {
				t.Fatalf("seed %d: %d loads with %s dedup vs %d without", seed, len(vOn), mode, len(vOff))
			}
			for i := range vOn {
				if vOn[i] != vOff[i] {
					t.Fatalf("seed %d: load %d = %d with %s dedup, %d without", seed, i, vOn[i], mode, vOff[i])
				}
			}
			if len(aOn) != len(aOff) {
				t.Fatalf("seed %d: aborts %v with %s dedup vs %v without", seed, aOn, mode, aOff)
			}
			for i := range aOn {
				if aOn[i] != aOff[i] {
					t.Fatalf("seed %d: abort rounds diverge with %s dedup: %v vs %v", seed, mode, aOn, aOff)
				}
			}
			for i := range mOn {
				if mOn[i] != mOff[i] {
					t.Fatalf("seed %d: final memory word %d = %d with %s dedup, %d without", seed, i, mOn[i], mode, mOff[i])
				}
			}
		}
	}
}

// Adaptive dedup must stay out of the way until the first extend, then
// compact the read set to one entry per distinct orec and filter the rest of
// the attempt.
func TestAdaptiveDedupCompactsOnExtend(t *testing.T) {
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	base, _ := mem.Alloc(32)
	tx := s.NewTx(1) // default mode: adaptive
	writer := s.NewTx(2)

	tx.Begin()
	tx.Load(base)
	tx.Load(base) // duplicate: adaptive mode appends it anyway
	if got := tx.ReadSetSize(); got != 2 {
		t.Fatalf("ReadSetSize before extend = %d, want 2 (no filtering yet)", got)
	}
	// An unrelated commit advances the clock; the next load of a stripe at
	// the new version forces extend(), which must compact.
	writer.Begin()
	writer.Store(base+16, 1)
	writer.Commit()
	tx.Load(base + 16)
	if got := tx.ReadSetSize(); got != 2 {
		t.Fatalf("ReadSetSize after extend = %d, want 2 (base deduped + new stripe)", got)
	}
	tx.Load(base) // now filtered: no new entry
	tx.Load(base + 16)
	if got := tx.ReadSetSize(); got != 2 {
		t.Fatalf("ReadSetSize after post-extend duplicates = %d, want 2", got)
	}
	tx.Commit()
	if got := tx.TakeDedupedReads(); got != 3 {
		t.Fatalf("TakeDedupedReads = %d, want 3 (1 compacted + 2 filtered)", got)
	}
}

// White-box filter checks: growth keeps exactness, stamping makes reset O(1).
func TestReadFilterGrowthAndStamping(t *testing.T) {
	var f readFilter
	const stamp = 7
	for i := uint32(0); i < 500; i++ {
		if !f.add(i, stamp) {
			t.Fatalf("fresh index %d reported as duplicate", i)
		}
	}
	for i := uint32(0); i < 500; i++ {
		if f.add(i, stamp) {
			t.Fatalf("index %d lost across growth", i)
		}
	}
	// A new stamp invalidates everything without clearing.
	f.reset()
	if !f.add(3, stamp+1) {
		t.Fatal("stale entry survived a stamp change")
	}
	if f.add(3, stamp+1) {
		t.Fatal("entry added under the new stamp not found")
	}
}
