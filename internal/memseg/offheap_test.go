//go:build unix && !race

package memseg_test

import (
	"runtime"
	"testing"
	"time"

	"gotle/internal/memseg"
	"gotle/internal/tmclock"
)

// TestDroppedHeapsAreUnmapped: the collector cannot see the mappings, so
// only the finalizers release them. Sixteen dropped heaps and orec tables of
// tleserved's shape (1<<23 words, 1<<20 orecs), a few pages of each touched,
// each heap with a block cache that allocated and freed, must all be
// unmapped after one collection.
func TestDroppedHeapsAreUnmapped(t *testing.T) {
	base := int64(-1)
	for base != memseg.MappedBytes() { // settle what earlier tests dropped
		base = memseg.MappedBytes()
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		m := memseg.New(1 << 23)
		c := m.NewCache()
		if a, ok := c.Alloc(4); ok {
			c.Free(a)
		}
		orecs := tmclock.NewTable(20, 3)
		for a := memseg.Addr(1); a < 1<<23; a += 1 << 20 {
			m.Store(a, uint64(i))
			orecs.For(a).Store(uint64(i))
		}
	}
	if memseg.MappedBytes() <= base {
		t.Fatalf("16 heaps and tables left MappedBytes at %d, baseline %d: nothing was mapped", memseg.MappedBytes(), base)
	}
	runtime.GC()
	for deadline := time.Now().Add(2 * time.Second); memseg.MappedBytes() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("2 s after a collection %d MiB are still mapped above the baseline", (memseg.MappedBytes()-base)>>20)
		}
	}
}
