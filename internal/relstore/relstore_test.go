package relstore

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Two goroutines hand a round number back and forth through release
// stores: each sees the other's flag move, and the data stored before the
// flag with it.
func TestStoresPublish(t *testing.T) {
	const rounds = 10000
	var data, ping atomic.Uint64
	var pong atomic.Uint32
	wait := func(moved func() bool) {
		for !moved() {
			runtime.Gosched()
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= rounds; i++ {
			wait(func() bool { return ping.Load() == i })
			if got := data.Load(); got != i {
				t.Errorf("round %d: data %d", i, got)
			}
			Store32(&pong, uint32(i))
		}
	}()
	for i := uint64(1); i <= rounds; i++ {
		data.Store(i)
		Store64(&ping, i)
		wait(func() bool { return pong.Load() == uint32(i) })
	}
	<-done
}
