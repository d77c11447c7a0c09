package memseg

import (
	"runtime"
	"sync/atomic"

	"gotle/internal/relstore"
)

// CacheWords bounds the payload words one Cache holds: 32 KiB of freed
// blocks. A free that would pass it goes to the shared stack instead.
const CacheWords = 1 << 12

// Cache is one thread's private stock of freed blocks, per size class, in
// front of the shared free stacks: glibc's per-thread tcache, which keeps
// a transaction's new and delete off shared lines. Its Alloc and Free do
// what Memory's do — a zeroed block of the request's class, a header check
// and poison on free — but a block the cache can serve or hold touches no
// shared word. The shared stacks see only what the cache cannot serve, what
// would pass CacheWords, and what Drain returns.
//
// Only the owning goroutine may call a Cache's methods. A block freed into
// a cache is reused by its owner only, so the grace periods a caller waits
// out before Free (quiescence, deferred reclamation) cover it exactly as
// they cover a block pushed onto a shared stack.
type Cache struct {
	m     *Memory
	live  *liveCount
	words int              // payload words held in heads
	heads [numClasses]Addr // per class, a list linked through payload word 0
	// Whole lines, which the Go allocator line-aligns: the next thread's
	// cache, written on its every Alloc and Free, starts on a line of its own.
	_ [60]byte
}

// liveCount is one cache's share of LiveWords: the payload words it handed
// out minus those it took back. Only the owner writes it, with a release
// store, so counting costs no locked instruction; LiveWords reads it. It is
// a whole line, which the Go allocator line-aligns, so no other word shares
// it (TestCacheIsWholeLines). Memory registers these, not the caches: a
// cache points at its Memory, and a Memory that reached its caches would
// sit on a cycle with its own finalizer and never be unmapped.
type liveCount struct {
	n atomic.Uint64
	_ [56]byte
}

// NewCache returns an empty cache over m, its count registered for
// LiveWords. A cache's count lives as long as m: give a thread's successor
// its cache rather than making a new one.
func (m *Memory) NewCache() *Cache {
	c := &Cache{m: m, live: new(liveCount)}
	m.countMu.Lock()
	m.counts = append(m.counts, c.live)
	m.countMu.Unlock()
	return c
}

// Alloc returns a zeroed block with room for n payload words, as
// Memory.Alloc does: from the cache's own class first, then from the
// shared heap, then from the cache's larger classes. ok is false when none
// of them holds a block for n words.
func (c *Cache) Alloc(n int) (Addr, bool) {
	if n <= 0 || n > MaxAlloc {
		return Nil, false
	}
	class, _ := classFor(n)
	a := c.pop(class)
	w := classWords[class]
	if a == Nil {
		a, w = c.m.take(class)
	}
	for cl := class + 1; a == Nil && cl < numClasses; cl++ {
		a, w = c.pop(cl), classWords[cl]
	}
	if a == Nil {
		return Nil, false
	}
	c.count(int64(w))
	return a, true
}

// pop takes a block off the cache's class list, zeroed, or returns Nil.
func (c *Cache) pop(class int) Addr {
	a := c.heads[class]
	if a == Nil {
		return Nil
	}
	m := c.m
	c.heads[class] = Addr(atomic.LoadUint64(&m.words[a]))
	c.words -= classWords[class]
	m.zero(a, classWords[class])
	return a
}

// Free releases the block at a as Memory.Free does, keeping it for the
// owner's next Alloc of its class while the cache holds under CacheWords.
// Freeing Nil is a no-op.
func (c *Cache) Free(a Addr) {
	if a == Nil {
		return
	}
	m := c.m
	class, w := m.poison(a)
	c.count(int64(-w))
	if c.words+w > CacheWords {
		m.push(class, a)
		return
	}
	// Plain outside race builds, like the poison: the block is the
	// owner's alone until Drain or the owner's Alloc hands it on.
	bulkSet(m.words[a:a+1], uint64(c.heads[class]))
	runtime.KeepAlive(m)
	c.heads[class] = a
	c.words += w
}

// count adds d payload words to the cache's share of LiveWords.
func (c *Cache) count(d int64) {
	relstore.Store64(&c.live.n, c.live.n.Load()+uint64(d))
}

// Drain pushes every block the cache holds onto the shared stacks. Its
// share of LiveWords stays with it.
func (c *Cache) Drain() {
	for class, a := range c.heads {
		for a != Nil {
			next := Addr(atomic.LoadUint64(&c.m.words[a]))
			c.m.push(class, a)
			a = next
		}
		c.heads[class] = Nil
	}
	c.words = 0
}
