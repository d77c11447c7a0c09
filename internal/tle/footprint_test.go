package tle

import (
	"runtime"
	"testing"
)

// newRuntimeBytes reports what tle.New allocates for policy p under cfg.
func newRuntimeBytes(p Policy, cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := New(p, cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rt)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRuntimeFootprintTracksHeap: a runtime's metadata scales with its heap.
// On a 1<<18-word (2 MiB) heap every policy, pthread's STM included, stays
// within 4.5 MiB, where a fixed 1<<20-orec table alone is 8 MiB; on
// tleserved's 1<<23-word heap with 8-word stripes the table is the full
// 1<<20 orecs, 72 MiB with the heap. Not parallel: TotalAlloc is per
// process.
func TestRuntimeFootprintTracksHeap(t *testing.T) {
	const mib = 1 << 20
	for _, p := range Policies {
		if got := newRuntimeBytes(p, Config{MemWords: 1 << 18}); got > 9*mib/2 {
			t.Errorf("%s on a 1<<18-word heap allocates %.2f MiB, want <= 4.5", p, float64(got)/mib)
		}
	}
	if got := newRuntimeBytes(PolicySTMCondVar, Config{MemWords: 1 << 23, StripeShift: 3}); got < 72*mib || got > 73*mib {
		t.Errorf("stm-cv on a 1<<23-word heap, 8-word stripes, allocates %.2f MiB, want 72-73", float64(got)/mib)
	}
}

// BenchmarkNewRuntime: the construction cost of each policy's runtime on
// tm-sets' 1<<18-word heap; B/op is its footprint.
func BenchmarkNewRuntime(b *testing.B) {
	for _, p := range Policies {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(p, Config{MemWords: 1 << 18})
			}
		})
	}
}
