package memseg

import (
	"testing"
	"unsafe"
)

// A cache and its live count are whole lines, which the Go allocator
// line-aligns: neither shares a line with another thread's words.
func TestCacheIsWholeLines(t *testing.T) {
	if size := unsafe.Sizeof(Cache{}); size%64 != 0 {
		t.Errorf("Cache is %d bytes, not a whole number of 64-byte lines", size)
	}
	if size := unsafe.Sizeof(liveCount{}); size != 64 {
		t.Errorf("liveCount is %d bytes, want one 64-byte line", size)
	}
	c := New(1024).NewCache()
	for _, p := range []uintptr{uintptr(unsafe.Pointer(c)), uintptr(unsafe.Pointer(c.live))} {
		if p%64 != 0 {
			t.Errorf("%#x is not on a line boundary", p)
		}
	}
}

// A cache serves its own frees back, zeroed, to its owner, and LiveWords
// counts the block through both.
func TestCacheReusesItsOwnFrees(t *testing.T) {
	m := New(4096)
	c := m.NewCache()
	a, ok := c.Alloc(11)
	if !ok || m.BlockSize(a) != 11 {
		t.Fatalf("Alloc(11) = %d, %v", a, ok)
	}
	if got := m.LiveWords(); got != 11 {
		t.Fatalf("LiveWords after a cache Alloc = %d, want 11", got)
	}
	for i := Addr(0); i < 11; i++ {
		m.Store(a+i, ^uint64(0))
	}
	c.Free(a)
	for i := Addr(1); i < 11; i++ {
		if v := m.Load(a + i); v != Poison {
			t.Fatalf("freed word %d = %#x, want poison", i, v)
		}
	}
	if got := m.LiveWords(); got != 0 || c.words != 11 {
		t.Fatalf("after Free: LiveWords %d, cache holds %d words; want 0 and 11", got, c.words)
	}
	if b, _ := m.Alloc(11); b == a {
		t.Fatal("the shared heap handed out a block the cache holds")
	}
	b, _ := c.Alloc(11)
	if b != a {
		t.Fatalf("cache Alloc = %d, want its freed block %d", b, a)
	}
	for i := Addr(0); i < 11; i++ {
		if v := m.Load(b + i); v != 0 {
			t.Fatalf("reused word %d = %#x, want 0", i, v)
		}
	}
}

// The cache holds at most CacheWords; frees past that go to the shared
// stacks, and Drain sends the rest. LiveWords stays exact throughout,
// however the blocks move between a cache, another cache and the heap.
func TestCacheWordBound(t *testing.T) {
	m := New(1 << 16)
	c, other := m.NewCache(), m.NewCache()
	const n = 100 // class of 104 words
	var blocks []Addr
	for len(blocks)*104 < 2*CacheWords {
		a, ok := other.Alloc(n)
		if !ok {
			t.Fatal("heap exhausted")
		}
		blocks = append(blocks, a)
	}
	live := int64(len(blocks) * 104)
	if got := m.LiveWords(); got != live {
		t.Fatalf("LiveWords = %d, want %d", got, live)
	}
	for _, a := range blocks {
		c.Free(a) // freed by a thread other than the allocator's
		if c.words > CacheWords {
			t.Fatalf("cache holds %d words, bound %d", c.words, CacheWords)
		}
		live -= 104
		if got := m.LiveWords(); got != live {
			t.Fatalf("LiveWords = %d, want %d", got, live)
		}
	}
	if want := CacheWords / 104 * 104; c.words != want {
		t.Fatalf("cache holds %d words after %d frees, want %d", c.words, len(blocks), want)
	}
	// The shared stack holds the overflow, Drain adds the rest: the shared
	// heap hands every block out again before it touches the bump pointer.
	held := c.words / 104
	got := map[Addr]bool{}
	for i := held; i < len(blocks); i++ {
		a, _ := m.Alloc(n)
		got[a] = true
	}
	c.Drain()
	if c.words != 0 {
		t.Fatalf("cache holds %d words after Drain", c.words)
	}
	for i := 0; i < held; i++ {
		a, _ := m.Alloc(n)
		got[a] = true
	}
	for _, a := range blocks {
		if !got[a] {
			t.Fatalf("block %d never came back from the shared heap", a)
		}
	}
	if got, want := m.LiveWords(), int64(len(blocks)*104); got != want {
		t.Fatalf("LiveWords = %d after every block went back out, want %d", got, want)
	}
}

// A request that the shared heap cannot serve, on a thread whose cache
// holds a larger block, gets that block whole: the exhausted-heap fallback
// covers the cache too.
func TestCacheTakesLargerBlockWhenExhausted(t *testing.T) {
	m := New(1024)
	c := m.NewCache()
	var big []Addr
	for {
		a, ok := c.Alloc(16)
		if !ok {
			break
		}
		big = append(big, a)
	}
	for {
		if _, ok := m.Alloc(2); !ok {
			break
		}
	}
	victim := big[len(big)/2]
	m.Store(victim+3, ^uint64(0))
	c.Free(victim)
	if _, ok := m.Alloc(10); ok {
		t.Fatal("the shared heap served Alloc(10) with its only free block in a cache")
	}
	if _, ok := c.Alloc(17); ok {
		t.Fatal("Alloc(17) succeeded with only a 16-word block free")
	}
	live := m.LiveWords()
	a, ok := c.Alloc(10)
	if !ok || a != victim || m.BlockSize(a) != 16 {
		t.Fatalf("Alloc(10) = %d, %v; want the cached 16-word block %d", a, ok, victim)
	}
	if m.Load(a+3) != 0 {
		t.Fatal("the borrowed block was not zeroed")
	}
	if got := m.LiveWords() - live; got != 16 {
		t.Fatalf("LiveWords rose by %d, want 16", got)
	}
	if c.words != 0 {
		t.Fatalf("cache holds %d words, want 0", c.words)
	}
}
