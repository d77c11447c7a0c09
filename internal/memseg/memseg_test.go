package memseg

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocBasic(t *testing.T) {
	m := New(4096)
	a, ok := m.Alloc(4)
	if !ok || a == Nil {
		t.Fatalf("Alloc(4) = %v, %v", a, ok)
	}
	if got := m.BlockSize(a); got != 4 {
		t.Fatalf("BlockSize = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if v := m.Load(a + Addr(i)); v != 0 {
			t.Fatalf("fresh block word %d = %#x, want 0", i, v)
		}
	}
}

func TestAllocRoundsToClass(t *testing.T) {
	m := New(1 << 16)
	cases := []struct{ req, want int }{
		{1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 10},
		{100, 112}, {264, 320}, {4096, 4096},
	}
	for _, c := range cases {
		if got := ClassPayload(c.req); got != c.want {
			t.Errorf("ClassPayload(%d) = %d, want %d", c.req, got, c.want)
		}
		a, ok := m.Alloc(c.req)
		if !ok {
			t.Fatalf("Alloc(%d) failed", c.req)
		}
		if got := m.BlockSize(a); got != c.want {
			t.Errorf("BlockSize(Alloc(%d)) = %d, want %d", c.req, got, c.want)
		}
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	m := New(4096)
	if _, ok := m.Alloc(0); ok {
		t.Error("Alloc(0) succeeded")
	}
	if _, ok := m.Alloc(-1); ok {
		t.Error("Alloc(-1) succeeded")
	}
	if _, ok := m.Alloc(MaxAlloc + 1); ok {
		t.Errorf("Alloc(%d) succeeded, want class limit of %d", MaxAlloc+1, MaxAlloc)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(1024)
	var got []Addr
	for {
		a, ok := m.Alloc(64)
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Free one and the next allocation of the same class must succeed.
	m.Free(got[0])
	if _, ok := m.Alloc(64); !ok {
		t.Fatal("Alloc after Free failed")
	}
}

func TestFreePoisons(t *testing.T) {
	m := New(4096)
	a, _ := m.Alloc(8)
	for i := 0; i < 8; i++ {
		m.Store(a+Addr(i), uint64(i+1))
	}
	m.Free(a)
	// Word 0 carries the free-list link; the rest must be poisoned.
	for i := 1; i < 8; i++ {
		if v := m.Load(a + Addr(i)); v != Poison {
			t.Fatalf("freed word %d = %#x, want poison", i, v)
		}
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	m := New(4096)
	m.Free(Nil) // must not panic
}

func TestSetPoisonOff(t *testing.T) {
	m := New(4096)
	m.SetPoison(false)
	a, _ := m.Alloc(4)
	m.Store(a+1, 42)
	m.Free(a)
	if v := m.Load(a + 1); v == Poison {
		t.Fatal("poisoning happened with poison disabled")
	}
}

func TestReuseSameClass(t *testing.T) {
	m := New(4096)
	a, _ := m.Alloc(16)
	m.Free(a)
	b, _ := m.Alloc(16)
	if a != b {
		t.Fatalf("expected freed block to be reused: got %d, freed %d", b, a)
	}
	for i := 0; i < 16; i++ {
		if v := m.Load(b + Addr(i)); v != 0 {
			t.Fatalf("recycled block word %d = %#x, want 0", i, v)
		}
	}
}

func TestLiveWordsAccounting(t *testing.T) {
	m := New(4096)
	if m.LiveWords() != 0 {
		t.Fatalf("initial LiveWords = %d", m.LiveWords())
	}
	a, _ := m.Alloc(11) // class 12
	if m.LiveWords() != 12 {
		t.Fatalf("LiveWords after alloc = %d, want 12", m.LiveWords())
	}
	m.Free(a)
	if m.LiveWords() != 0 {
		t.Fatalf("LiveWords after free = %d, want 0", m.LiveWords())
	}
}

func TestBlockSizePanicsOnCorruptHeader(t *testing.T) {
	m := New(4096)
	a, _ := m.Alloc(4)
	m.Store(a-1, numClasses-1) // the last class is a legal header
	if got := m.BlockSize(a); got != MaxAlloc {
		t.Fatalf("BlockSize with class %d header = %d, want %d", numClasses-1, got, MaxAlloc)
	}
	for _, bad := range []uint64{numClasses, 999} { // stomp the class header
		m.Store(a-1, bad)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("corrupt header %d not detected", bad)
				}
			}()
			m.BlockSize(a)
		}()
	}
}

// TestSizeClassesProperty checks every request size against the class
// rules: the class is the smallest that holds the request, requests of up
// to 8 words get 2, 4 or 8, larger ones waste under a quarter of their
// block, an allocated block reports its class's size, and a freed block
// goes back to a request of its own class and to no other.
func TestSizeClassesProperty(t *testing.T) {
	m := New(1 << 19)
	m.SetPoison(false)
	for c := 1; c < numClasses; c++ {
		if classWords[c] <= classWords[c-1] {
			t.Fatalf("class %d holds %d words, class %d holds %d", c, classWords[c], c-1, classWords[c-1])
		}
	}
	if classWords[0] != 2 || classWords[numClasses-1] != MaxAlloc {
		t.Fatalf("classes hold %d to %d words, want 2 to %d", classWords[0], classWords[numClasses-1], MaxAlloc)
	}
	blockOf := map[int]Addr{} // class -> its one block, freed
	classOf := map[Addr]int{}
	for n := 1; n <= MaxAlloc; n++ {
		c, cap := classFor(n)
		if cap < n || cap != classWords[c] || ClassPayload(n) != cap {
			t.Fatalf("n=%d: class %d holds %d (table %d, ClassPayload %d)", n, c, cap, classWords[c], ClassPayload(n))
		}
		if c > 0 && classWords[c-1] >= n {
			t.Fatalf("n=%d: class %d (%d words) is not the smallest; class %d holds %d", n, c, cap, c-1, classWords[c-1])
		}
		if n <= 8 && cap != 2 && cap != 4 && cap != 8 {
			t.Fatalf("n=%d: small request got %d words", n, cap)
		}
		if n > 8 && 4*(cap-n) >= cap {
			t.Fatalf("n=%d: %d-word block wastes %d words, a quarter or more", n, cap, cap-n)
		}
		prev, seen := blockOf[c]
		if seen && n > 1<<12 {
			continue // past 4096 words, one Alloc per class keeps the zeroing cheap
		}
		a, ok := m.Alloc(n)
		if !ok {
			t.Fatalf("Alloc(%d) failed", n)
		}
		if got := m.BlockSize(a); got != cap {
			t.Fatalf("BlockSize(Alloc(%d)) = %d, want %d", n, got, cap)
		}
		if owner, freed := classOf[a]; seen && a != prev || !seen && freed {
			t.Fatalf("Alloc(%d), class %d, got block %d (freed by class %d); its own freed block is %d", n, c, a, owner, prev)
		}
		blockOf[c], classOf[a] = a, c
		m.Free(a)
	}
}

func TestLoadStoreCAS(t *testing.T) {
	m := New(4096)
	a, _ := m.Alloc(2)
	m.Store(a, 7)
	if m.Load(a) != 7 {
		t.Fatal("Load after Store mismatch")
	}
	if !m.CompareAndSwap(a, 7, 9) {
		t.Fatal("CAS with correct old failed")
	}
	if m.CompareAndSwap(a, 7, 11) {
		t.Fatal("CAS with stale old succeeded")
	}
	if m.Load(a) != 9 {
		t.Fatalf("final value %d, want 9", m.Load(a))
	}
}

func TestLineMapping(t *testing.T) {
	if Addr(0).Line() != 0 || Addr(7).Line() != 0 {
		t.Error("words 0..7 must share line 0")
	}
	if Addr(8).Line() != 1 {
		t.Error("word 8 must start line 1")
	}
	if Addr(800).Line() != 100 {
		t.Errorf("word 800 on line %d, want 100", Addr(800).Line())
	}
}

func TestEncodeDecodeInt(t *testing.T) {
	f := func(v int64) bool { return DecodeInt(EncodeInt(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAllocFree hammers the allocator from many goroutines and
// checks that no two live blocks alias.
func TestConcurrentAllocFree(t *testing.T) {
	m := New(1 << 20)
	const workers = 8
	const iters = 2000
	var mu sync.Mutex
	live := make(map[Addr]int) // addr -> owner worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var mine []Addr
			for i := 0; i < iters; i++ {
				a, ok := m.Alloc(1 + (id+i)%20)
				if !ok {
					t.Errorf("worker %d: alloc failed at iter %d", id, i)
					return
				}
				mu.Lock()
				if owner, dup := live[a]; dup {
					t.Errorf("block %d handed to both worker %d and %d", a, owner, id)
				}
				live[a] = id
				mu.Unlock()
				mine = append(mine, a)
				if len(mine) > 16 {
					victim := mine[0]
					mine = mine[1:]
					mu.Lock()
					delete(live, victim)
					mu.Unlock()
					m.Free(victim)
				}
			}
			for _, a := range mine {
				mu.Lock()
				delete(live, a)
				mu.Unlock()
				m.Free(a)
			}
		}(w)
	}
	wg.Wait()
}

// quick-check: alloc/free sequences preserve the invariant that a freshly
// allocated block is zeroed regardless of history.
func TestQuickFreshBlocksZeroed(t *testing.T) {
	m := New(1 << 18)
	f := func(sizes []uint8) bool {
		var held []Addr
		for i, s := range sizes {
			n := int(s%64) + 1
			a, ok := m.Alloc(n)
			if !ok {
				return true // exhaustion is not a failure of the invariant
			}
			for j := 0; j < n; j++ {
				if m.Load(a+Addr(j)) != 0 {
					return false
				}
				m.Store(a+Addr(j), ^uint64(0))
			}
			held = append(held, a)
			if i%3 == 0 && len(held) > 0 {
				m.Free(held[0])
				held = held[1:]
			}
		}
		for _, a := range held {
			m.Free(a)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAllocFree pairs an Alloc with its Free: a 4-word block (the
// benchmark's memseg.alloc_free_ns probe) and a 2 KiB kvstore item's 264.
func BenchmarkAllocFree(b *testing.B) {
	for _, n := range []int{4, 264} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			m := New(1 << 20)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					a, ok := m.Alloc(n)
					if !ok {
						b.Error("exhausted")
						return
					}
					m.Free(a)
				}
			})
		})
	}
}
