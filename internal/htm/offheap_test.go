//go:build unix && !race

package htm

import (
	"runtime"
	"testing"
	"time"

	"gotle/internal/memseg"
)

// TestDroppedHTMIsUnmapped: the line records and stamp tables are mapped,
// so only the finalizer releases them, and a descriptor points back at its
// HTM. Eight dropped HTMs over a 1<<20-word heap, each with two contexts
// taken, must all be unmapped within a few collections.
func TestDroppedHTMIsUnmapped(t *testing.T) {
	base := int64(-1)
	for base != memseg.MappedBytes() { // settle what earlier tests dropped
		base = memseg.MappedBytes()
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		h := New(memseg.New(1<<20), Config{})
		for id := uint64(0); id < 2; id++ {
			tx := h.NewTx(id)
			tx.Begin()
			_ = tx.Load(memseg.Addr(1 + id))
			tx.Commit()
		}
		h.NewTx(2).Release()
	}
	if memseg.MappedBytes() <= base {
		t.Fatalf("8 HTMs left MappedBytes at %d, baseline %d: nothing was mapped", memseg.MappedBytes(), base)
	}
	for deadline := time.Now().Add(2 * time.Second); memseg.MappedBytes() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("2 s of collections left %d KiB mapped above the baseline", (memseg.MappedBytes()-base)>>10)
		}
		runtime.GC()
	}
}
