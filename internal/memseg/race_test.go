//go:build race

package memseg

import (
	"runtime"
	"testing"
)

var published int

// TestHeapAtomicsOrderGoMemory: a Go variable published through an atomic
// heap word is ordered by it. The race detector sees that edge only while
// the heap is Go memory, which is why a race build does not map it.
func TestHeapAtomicsOrderGoMemory(t *testing.T) {
	m := New(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		published = 1
		m.Store(8, 1)
	}()
	for m.Load(8) == 0 {
		runtime.Gosched()
	}
	if published != 1 {
		t.Error("the heap word was set before the variable it publishes")
	}
	<-done
}
