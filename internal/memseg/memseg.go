// Package memseg provides the simulated transactional heap.
//
// Go offers no way to trap loads and stores to native memory, so everything
// the TM engine manages lives in one word-addressable segment. Addresses are
// dense 32-bit word indices, which gives the STM a natural ownership-record
// hash domain and gives the simulated HTM a natural cache-line domain
// (8 words = one 64-byte line). The segment is shared by transactional and
// non-transactional accessors, exactly like the single heap that GCC's TM
// operates over after lock erasure (paper, Section IV.A).
//
// The allocator is a lock-free size-class allocator: fresh blocks come from
// an atomic bump pointer, freed blocks go onto per-class Treiber stacks with
// version-counted heads, and a thread with a Cache keeps its own freed
// blocks in front of those stacks (cache.go). Freed blocks are poisoned so
// that a transaction racing with a privatizing free — the bug class that
// quiescence exists to prevent (Section IV) — reads a recognizable poison
// value instead of silently wrong data.
//
// The segment and the STM's orec table come from Map, which the collector
// cannot see: a program that drops runtimes releases them at its next GC.
package memseg

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Addr is a word index into the segment. The zero Addr is reserved as nil:
// word 0 is never handed out by the allocator.
type Addr uint32

// Nil is the null address.
const Nil Addr = 0

// WordsPerLine is the cache-line granularity used by the HTM simulator:
// 8 words of 8 bytes = 64-byte lines.
const WordsPerLine = 8

// Line returns the cache line an address falls on.
func (a Addr) Line() uint32 { return uint32(a) / WordsPerLine }

// Poison is the value written over freed words. Reads that observe it after
// an alleged privatization indicate a quiescence violation.
const Poison uint64 = 0xDEADBEEFDEADBEEF

// Size classes hold 2, 4 and 8 payload words, then eight per doubling: 9,
// 10, … 16, 18, 20, … 32, 36, … 65536. Above 8 words a block wastes under a
// ninth of its size, and powers of two and every size from 9 to 16 words
// have a class of their own. One header word precedes each payload and
// records the class index.
const (
	maxClassShift = 16
	numClasses    = 3 + 8*(maxClassShift-3)
)

// MaxAlloc is the largest payload (in words) a single Alloc may request.
const MaxAlloc = 1 << maxClassShift

// classWords[c] is the payload capacity of class c, for BlockSize and Free.
var classWords = func() (t [numClasses]int) {
	for n := 1; n <= MaxAlloc; n++ {
		c, w := classFor(n)
		t[c], n = w, w
	}
	return t
}()

// Memory is one simulated heap segment.
type Memory struct {
	words []uint64      // from Map; a method whose last use of m points into it ends in runtime.KeepAlive(m)
	next  atomic.Uint64 // bump pointer (word index of next fresh block)
	limit uint64
	// freeHeads[c] packs (aba count << 32 | addr) for class c's free stack.
	// Dense free-list heads: padding to a line per class would cost
	// numClasses*56 bytes (about 6 KB) to speed up only the
	// cross-class-contention case, which the size-class routing makes rare
	// (threads in the same phase hit the same class, where sharing is
	// inherent).
	//gotle:allow falseshare cross-class contention is rare by construction; same-class contention is inherent to a shared free list
	freeHeads [numClasses]atomic.Uint64
	liveWords atomic.Int64 // payload words live through Alloc and Free; see LiveWords

	// counts holds the live count of every Cache made over the segment,
	// for LiveWords. None is dropped: a thread's successor reuses its cache.
	countMu sync.Mutex
	counts  []*liveCount
}

// New returns a segment of the given size in words. Sizes below 1024 words
// are rounded up.
func New(words int) *Memory {
	if words < 1024 {
		words = 1024
	}
	m := &Memory{
		words: Map[uint64](words),
		limit: uint64(words),
	}
	runtime.SetFinalizer(m, func(m *Memory) { Unmap(m.words) })
	m.next.Store(1) // skip word 0 (Nil)
	return m
}

// Size reports the segment size in words.
func (m *Memory) Size() int { return len(m.words) }

// Load atomically reads the word at a. This is the non-instrumented access
// path: under STM it is a plain (weakly isolated) read, which is precisely
// why privatization needs quiescence.
func (m *Memory) Load(a Addr) uint64 {
	v := atomic.LoadUint64(&m.words[a])
	runtime.KeepAlive(m)
	return v
}

// Store atomically writes the word at a via the non-instrumented path.
func (m *Memory) Store(a Addr, v uint64) {
	atomic.StoreUint64(&m.words[a], v)
	runtime.KeepAlive(m)
}

// StoreRange writes src to the consecutive words starting at a as one bulk
// copy. The caller must be the only thread that can reach [a, a+len(src)):
// a block it allocated and has not yet published, or memory guarded by a
// lock it holds. Anyone else touching those words is already outside a
// correct execution, which is what lets bulkCopy use plain stores.
func (m *Memory) StoreRange(a Addr, src []uint64) {
	bulkCopy(m.words[int(a):int(a)+len(src)], src)
	runtime.KeepAlive(m)
}

// CompareAndSwap performs a CAS on the word at a.
func (m *Memory) CompareAndSwap(a Addr, old, new uint64) bool {
	ok := atomic.CompareAndSwapUint64(&m.words[a], old, new)
	runtime.KeepAlive(m)
	return ok
}

// classFor returns the size class index for a payload of n words, and the
// payload capacity of that class. Above 8 words, n-1 lies in [2^k, 2^(k+1)),
// and the eighth of that range it falls in, j = 0..7, picks the class of
// (9+j)*2^(k-3) words.
func classFor(n int) (int, int) {
	if n < 1 {
		n = 1
	}
	if n <= 8 {
		shift := max(bits.Len(uint(n-1)), 1)
		return shift - 1, 1 << shift
	}
	k := bits.Len(uint(n-1)) - 1
	j := (n - 1 - 1<<k) >> (k - 3) // 0..7
	return 3 + 8*(k-3) + j, (9 + j) << (k - 3)
}

// Alloc returns the address of a zeroed block with room for n payload words.
// Once the bump pointer is spent and the request's class has no freed block,
// the nearest larger class with one serves it; that block keeps its own
// class, so BlockSize and Free see its full size. ok is false when no block
// is left that can hold n words.
func (m *Memory) Alloc(n int) (Addr, bool) {
	if n <= 0 || n > MaxAlloc {
		return Nil, false
	}
	class, _ := classFor(n)
	a, w := m.take(class)
	if a == Nil {
		return Nil, false
	}
	m.liveWords.Add(int64(w))
	return a, true
}

// take returns a zeroed block of the given class, from its free stack or
// the bump pointer, or else the nearest larger class's freed block, with
// the block's payload words; Nil when none is left. The caller counts it
// live.
func (m *Memory) take(class int) (Addr, int) {
	if a := m.reuse(class); a != Nil {
		return a, classWords[class]
	}
	// Fresh block from the bump pointer: header word + payload.
	w := classWords[class]
	need := uint64(w + 1)
	for {
		cur := m.next.Load()
		if cur+need > m.limit {
			break
		}
		if m.next.CompareAndSwap(cur, cur+need) {
			hdr := Addr(cur)
			atomic.StoreUint64(&m.words[hdr], uint64(class))
			// No clearing: words past the bump pointer have never been
			// handed out, so they are still zero from construction.
			return hdr + 1, w
		}
	}
	for c := class + 1; c < numClasses; c++ {
		if a := m.reuse(c); a != Nil {
			return a, classWords[c]
		}
	}
	return Nil, 0
}

// reuse takes a block off class c's free stack, zeroed, or returns Nil if
// the stack is empty.
func (m *Memory) reuse(c int) Addr {
	head := &m.freeHeads[c]
	for {
		h := head.Load()
		a := Addr(h & 0xFFFFFFFF)
		if a == Nil {
			return Nil
		}
		next := atomic.LoadUint64(&m.words[a]) // next pointer stored in payload word 0
		newHead := (h+(1<<32)) & ^uint64(0xFFFFFFFF) | (next & 0xFFFFFFFF)
		if head.CompareAndSwap(h, newHead) {
			m.zero(a, classWords[c])
			return a
		}
	}
}

func (m *Memory) zero(a Addr, n int) {
	// The bulk store races no transaction: zero runs on freshly popped
	// (Alloc) or freshly privatized (Free) blocks the caller owns
	// exclusively, and bulkSet swaps to atomic stores under -race.
	bulkSet(m.words[int(a):int(a)+n], 0)
	runtime.KeepAlive(m)
}

// BlockSize reports the payload capacity of the block at a, which must be an
// address previously returned by Alloc.
func (m *Memory) BlockSize(a Addr) int {
	class := atomic.LoadUint64(&m.words[a-1])
	runtime.KeepAlive(m)
	if class >= numClasses {
		panic(fmt.Sprintf("memseg: corrupt block header at %d: %d", a, class))
	}
	return classWords[class]
}

// Free returns the block at a to its class's free stack, poisoning its
// payload first (except word 0, which carries the free-list link). Freeing
// Nil is a no-op. Free is safe to call concurrently but callers must
// guarantee — via quiescence — that no transaction still reads the block;
// violating that is the race this package's poisoning makes visible.
func (m *Memory) Free(a Addr) {
	if a == Nil {
		return
	}
	class, w := m.poison(a)
	m.liveWords.Add(int64(-w))
	m.push(class, a)
}

// poison checks the header of the block at a, as BlockSize does, poisons
// its payload past word 0, and returns its class and payload words.
func (m *Memory) poison(a Addr) (int, int) {
	w := m.BlockSize(a)
	bulkSet(m.words[int(a)+1:int(a)+w], Poison)
	return int(atomic.LoadUint64(&m.words[a-1])), w
}

// push links the poisoned block at a onto class's free stack.
func (m *Memory) push(class int, a Addr) {
	head := &m.freeHeads[class]
	for {
		h := head.Load()
		atomic.StoreUint64(&m.words[a], h&0xFFFFFFFF) // link to old head
		newHead := (h+(1<<32)) & ^uint64(0xFFFFFFFF) | uint64(a)
		if head.CompareAndSwap(h, newHead) {
			return
		}
	}
}

// LiveWords reports the number of currently allocated payload words: those
// the shared stacks and bump pointer handed out through Alloc and Free, and
// every cache's own count. It is exact once no thread is allocating.
func (m *Memory) LiveWords() int64 {
	n := m.liveWords.Load()
	m.countMu.Lock()
	for _, c := range m.counts {
		n += int64(c.n.Load())
	}
	m.countMu.Unlock()
	return n
}

// MappedBytes reports the bytes Map holds outside the Go heap, process-wide.
func MappedBytes() int64 { return mapped.Load() }

var mapped atomic.Int64

// Used reports how many words of the segment have ever been claimed from the
// bump pointer (freed blocks still count; they are recycled per class).
func (m *Memory) Used() int64 { return int64(m.next.Load()) }

// EncodeInt converts a signed value for storage in a word.
func EncodeInt(v int64) uint64 { return uint64(v) }

// DecodeInt recovers a signed value stored with EncodeInt.
func DecodeInt(v uint64) int64 { return int64(v) }
