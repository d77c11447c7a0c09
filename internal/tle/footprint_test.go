package tle

import (
	"runtime"
	"testing"
	"time"

	"gotle/internal/memseg"
)

const mib = 1 << 20

// settle collects until no dropped heap or orec table is left to unmap, so
// memseg.MappedBytes moves only with what the caller maps next.
func settle() {
	for last := int64(-1); memseg.MappedBytes() != last; {
		last = memseg.MappedBytes()
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// newRuntimeBytes reports what tle.New takes for policy p under cfg, and
// then one NewThread when thread is set: the bytes they map outside the Go
// heap (heap, orec table, the HTM's line records and the thread's stamps)
// and the Go heap they allocate.
func newRuntimeBytes(p Policy, cfg Config, thread bool) (mapped int64, heap uint64) {
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m0 := memseg.MappedBytes()
	rt := New(p, cfg)
	if thread {
		rt.NewThread()
	}
	m1 := memseg.MappedBytes()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rt)
	return m1 - m0, after.TotalAlloc - before.TotalAlloc
}

// TestRuntimeFootprintTracksHeap: a runtime's metadata scales with its heap.
// On a 1<<18-word (2 MiB) heap every policy, pthread's STM included, stays
// within 4.5 MiB, mapped and Go heap together, where a fixed 1<<20-orec
// table alone is 8 MiB; on tleserved's 1<<23-word heap with 8-word stripes
// the table is the full 1<<20 orecs, 72 MiB with the heap. Not parallel:
// both counters are per process.
func TestRuntimeFootprintTracksHeap(t *testing.T) {
	for _, p := range Policies {
		if m, h := newRuntimeBytes(p, Config{MemWords: 1 << 18}, false); uint64(m)+h > 9*mib/2 {
			t.Errorf("%s on a 1<<18-word heap takes %.2f MiB mapped + %.2f MiB Go heap, want <= 4.5 in all",
				p, float64(m)/mib, float64(h)/mib)
		}
	}
	m, h := newRuntimeBytes(PolicySTMCondVar, Config{MemWords: 1 << 23, StripeShift: 3}, false)
	if got := uint64(m) + h; got < 72*mib || got > 73*mib {
		t.Errorf("stm-cv on a 1<<23-word heap, 8-word stripes, takes %.2f MiB mapped + %.2f MiB Go heap, want 72-73 in all",
			float64(m)/mib, float64(h)/mib)
	}
}

// BenchmarkNewRuntime: the construction cost of each policy's runtime on
// tm-sets' 1<<18-word heap. B/op is the Go heap it allocates; mapped-MiB/op
// is the heap and orec table it maps outside it.
func BenchmarkNewRuntime(b *testing.B) {
	for _, p := range Policies {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			m, _ := newRuntimeBytes(p, Config{MemWords: 1 << 18}, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				New(p, Config{MemWords: 1 << 18})
			}
			b.ReportMetric(float64(m)/mib, "mapped-MiB/op")
		})
	}
}
