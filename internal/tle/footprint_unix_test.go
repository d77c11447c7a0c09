//go:build unix && !race

package tle

import "testing"

// TestRuntimeHeapIsMapped: on tleserved's shape the 64 MiB heap and the
// 8 MiB orec table are mapped, not Go heap, so the collector neither counts
// nor paces on them and tle.New allocates under 1 MiB of Go heap. The same
// holds for htm-cv after one NewThread: the HTM's line records and the
// thread's stamp table, 4 MiB each, are mapped too.
func TestRuntimeHeapIsMapped(t *testing.T) {
	m, h := newRuntimeBytes(PolicySTMCondVar, Config{MemWords: 1 << 23, StripeShift: 3}, false)
	if m < 72*mib || h >= mib {
		t.Errorf("stm-cv on a 1<<23-word heap maps %.2f MiB and allocates %.2f MiB of Go heap, want >= 72 and < 1",
			float64(m)/mib, float64(h)/mib)
	}
	m, h = newRuntimeBytes(PolicyHTMCondVar, Config{MemWords: 1 << 23}, true)
	if m < 72*mib || h >= mib {
		t.Errorf("htm-cv on a 1<<23-word heap with one thread maps %.2f MiB and allocates %.2f MiB of Go heap, want >= 72 and < 1",
			float64(m)/mib, float64(h)/mib)
	}
}
