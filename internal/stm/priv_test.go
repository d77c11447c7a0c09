package stm

import (
	"sync"
	"testing"
	"time"

	"gotle/internal/abortsig"
	"gotle/internal/epoch"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// These tests reproduce the privatization problem of Section IV: with a
// write-through STM, a transaction that is doomed to abort keeps dirty
// values in place (and later writes undo values) — if a privatizing thread
// starts non-transactional accesses without quiescing, it races with both.

// TestPrivatizationRaceWithoutQuiescence constructs the race
// deterministically: a writer transaction holds a dirty in-place value when
// the privatizer detaches the block; a non-transactional read that skips
// quiescence observes the uncommitted value.
func TestPrivatizationRaceWithoutQuiescence(t *testing.T) {
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	ptr, _ := mem.Alloc(2) // shared pointer cell
	blk, _ := mem.Alloc(2) // the block being privatized
	mem.Store(ptr, uint64(blk))
	mem.Store(blk, 42) // committed value

	// Doomed writer: writes through, then stalls before aborting.
	writer := s.NewTx(1)
	writer.Begin()
	writer.Store(blk, 999)

	// Privatizer: transactionally detach the block...
	priv := s.NewTx(2)
	run(priv, func(tx *Tx) { tx.Store(ptr, uint64(memseg.Nil)) })
	// ...and, WITHOUT quiescing, read it non-transactionally.
	if got := mem.Load(blk); got != 999 {
		t.Fatalf("expected to observe the doomed writer's dirty value 999, got %d"+
			" (write-through STM should leave uncommitted data in place)", got)
	}

	// The writer now aborts; its undo write lands in "private" memory —
	// the second half of the race.
	func() {
		defer func() {
			if sig := abortsig.From(recover()); sig == nil {
				t.Fatal("expected abort")
			}
			writer.OnAbort()
		}()
		abortsig.Throw(stats.Explicit)
	}()
	if got := mem.Load(blk); got != 42 {
		t.Fatalf("undo write lost: %d", got)
	}
}

// TestQuiescencePreventsTheRace runs the same schedule but the privatizer
// quiesces (epoch-style) between its commit and the non-transactional
// access; by then the doomed writer has finished its undo, so the private
// read sees only committed data.
func TestQuiescencePreventsTheRace(t *testing.T) {
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	mgr := epoch.NewManager()
	ptr, _ := mem.Alloc(2)
	blk, _ := mem.Alloc(2)
	mem.Store(ptr, uint64(blk))
	mem.Store(blk, 42)

	writerSlot := mgr.Register()
	privSlot := mgr.Register()

	writer := s.NewTx(1)
	writerSlot.Enter()
	writer.Begin()
	writer.Store(blk, 999)

	// The writer will abort (and exit its epoch) shortly, as a real doomed
	// transaction would once it notices its conflict.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		writer.OnAbort()
		writerSlot.Exit()
	}()

	priv := s.NewTx(2)
	privSlot.Enter()
	run(priv, func(tx *Tx) { tx.Store(ptr, uint64(memseg.Nil)) })
	privSlot.Exit()
	// Privatization safety: wait out every transaction concurrent with the
	// privatizing commit.
	mgr.QuiesceWith(privSlot, new(epoch.Scratch))
	if got := mem.Load(blk); got != 42 {
		t.Fatalf("quiesced private read saw %d, want committed 42", got)
	}
	wg.Wait()
}

// TestProxyPrivatizationOrdering models Listing 1: the privatizing write is
// performed by one thread, and a *different* thread (the proxy) hands the
// privatized data to its non-transactional consumer. Quiescence after every
// transaction (GCC's post-2016 rule) covers this; quiescing only writers
// does not help the read-only proxy transaction.
func TestProxyPrivatizationOrdering(t *testing.T) {
	mem := memseg.New(1 << 14)
	s := New(mem, Config{OrecSizeLog2: 10})
	mgr := epoch.NewManager()
	vec, _ := mem.Alloc(2) // vec[k] cell
	blk, _ := mem.Alloc(2) // the message payload
	mem.Store(blk, 7)
	mem.Store(vec, uint64(blk))

	writerSlot := mgr.Register()
	writer := s.NewTx(1)
	writerSlot.Enter()
	writer.Begin()
	writer.Store(blk, 1234) // doomed in-place write to the payload

	// Private thread: atomically take the message (msg = vec[k], vec[k] = null).
	taker := s.NewTx(2)
	takerSlot := mgr.Register()
	takerSlot.Enter()
	var msg memseg.Addr
	run(taker, func(tx *Tx) {
		msg = memseg.Addr(tx.Load(vec))
		tx.Store(vec, uint64(memseg.Nil))
	})
	takerSlot.Exit()

	// Proxy thread hands msg to a consumer that reads it non-
	// transactionally. Without quiescence the consumer can see 1234.
	if got := mem.Load(msg); got != 1234 {
		t.Fatalf("race setup failed: got %d", got)
	}
	// With read-only-exempt quiescence (pre-2016 GCC), the taker's commit
	// would also skip the wait — only quiesce-after-every-transaction
	// protects the proxy hand-off. Model the correct behaviour:
	done := make(chan struct{})
	go func() {
		writer.OnAbort()
		writerSlot.Exit()
		close(done)
	}()
	mgr.QuiesceWith(takerSlot, new(epoch.Scratch))
	<-done
	if got := mem.Load(msg); got != 7 {
		t.Fatalf("after quiescence consumer saw %d, want 7", got)
	}
}
