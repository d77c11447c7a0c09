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
// version-counted heads. Freed blocks are poisoned so that a transaction
// racing with a privatizing free — the bug class that quiescence exists to
// prevent (Section IV) — reads a recognizable poison value instead of
// silently wrong data.
package memseg

import (
	"fmt"
	"math/bits"
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

// Size classes hold 2, 4 and 8 payload words, then four per doubling: 10,
// 12, 14, 16, 20, … 65536. Above 8 words a block wastes under a quarter of
// its size (powers of two, which keep their class, waste up to half). One
// header word precedes each payload and records the class index.
const (
	maxClassShift = 16
	numClasses    = 3 + 4*(maxClassShift-3)
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
	words []uint64
	next  atomic.Uint64 // bump pointer (word index of next fresh block)
	limit uint64
	// freeHeads[c] packs (aba count << 32 | addr) for class c's free stack.
	// Dense free-list heads: padding to a line per class would cost
	// numClasses*56 bytes to speed up only the cross-class-contention
	// case, which the size-class routing makes rare (threads in the same
	// phase hit the same class, where sharing is inherent).
	//gotle:allow falseshare cross-class contention is rare by construction; same-class contention is inherent to a shared free list
	freeHeads [numClasses]atomic.Uint64
	poison    bool
	liveBytes atomic.Int64 // live payload words, advisory accounting
}

// New returns a segment of the given size in words. Sizes below 1024 words
// are rounded up. Poisoning of freed blocks is enabled by default; see
// SetPoison.
func New(words int) *Memory {
	if words < 1024 {
		words = 1024
	}
	m := &Memory{
		words:  make([]uint64, words),
		limit:  uint64(words),
		poison: true,
	}
	m.next.Store(1) // skip word 0 (Nil)
	return m
}

// SetPoison toggles poisoning of freed blocks.
func (m *Memory) SetPoison(on bool) { m.poison = on }

// Size reports the segment size in words.
func (m *Memory) Size() int { return len(m.words) }

// Load atomically reads the word at a. This is the non-instrumented access
// path: under STM it is a plain (weakly isolated) read, which is precisely
// why privatization needs quiescence.
func (m *Memory) Load(a Addr) uint64 {
	return atomic.LoadUint64(&m.words[a])
}

// Store atomically writes the word at a via the non-instrumented path.
func (m *Memory) Store(a Addr, v uint64) {
	atomic.StoreUint64(&m.words[a], v)
}

// StoreRange writes src to the consecutive words starting at a as one bulk
// copy. The caller must be the only thread that can reach [a, a+len(src)):
// a block it allocated and has not yet published, or memory guarded by a
// lock it holds. Anyone else touching those words is already outside a
// correct execution, which is what lets bulkCopy use plain stores.
func (m *Memory) StoreRange(a Addr, src []uint64) {
	//gotle:allow protdom exclusive owner; bulkCopy is atomic under -race
	bulkCopy(m.words[int(a):int(a)+len(src)], src)
}

// CompareAndSwap performs a CAS on the word at a.
func (m *Memory) CompareAndSwap(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&m.words[a], old, new)
}

// classFor returns the size class index for a payload of n words, and the
// payload capacity of that class. Above 8 words, n-1 lies in [2^k, 2^(k+1)),
// and the quarter of that range it falls in, j = 0..3, picks the class of
// (5+j)*2^(k-2) words.
func classFor(n int) (int, int) {
	if n < 1 {
		n = 1
	}
	if n <= 8 {
		shift := max(bits.Len(uint(n-1)), 1)
		return shift - 1, 1 << shift
	}
	k := bits.Len(uint(n-1)) - 1
	j := (n - 1 - 1<<k) >> (k - 2) // 0..3
	return 3 + 4*(k-3) + j, (5 + j) << (k - 2)
}

// ClassPayload reports the payload capacity, in words, of the size class
// that Alloc would use for a request of n words.
func ClassPayload(n int) int {
	_, cap := classFor(n)
	return cap
}

// Alloc returns the address of a zeroed block with room for n payload words.
// ok is false when the segment is exhausted and no freed block of the class
// is available.
func (m *Memory) Alloc(n int) (Addr, bool) {
	if n <= 0 || n > MaxAlloc {
		return Nil, false
	}
	class, cap := classFor(n)
	// Try the free stack first.
	head := &m.freeHeads[class]
	for {
		h := head.Load()
		a := Addr(h & 0xFFFFFFFF)
		if a == Nil {
			break
		}
		next := atomic.LoadUint64(&m.words[a]) // next pointer stored in payload word 0
		newHead := (h+(1<<32)) & ^uint64(0xFFFFFFFF) | (next & 0xFFFFFFFF)
		if head.CompareAndSwap(h, newHead) {
			m.zero(a, cap)
			m.liveBytes.Add(int64(cap))
			return a, true
		}
	}
	// Fresh block from the bump pointer: header word + payload.
	need := uint64(cap + 1)
	for {
		cur := m.next.Load()
		if cur+need > m.limit {
			return Nil, false
		}
		if m.next.CompareAndSwap(cur, cur+need) {
			hdr := Addr(cur)
			atomic.StoreUint64(&m.words[hdr], uint64(class))
			a := hdr + 1
			// No clearing: words past the bump pointer have never been
			// handed out, so they are still zero from construction.
			m.liveBytes.Add(int64(cap))
			return a, true
		}
	}
}

func (m *Memory) zero(a Addr, n int) {
	// The bulk store races no transaction: zero runs on freshly popped
	// (Alloc) or freshly privatized (Free) blocks the caller owns
	// exclusively, and bulkSet swaps to atomic stores under -race.
	//gotle:allow protdom exclusive owner; bulkSet is atomic under -race
	bulkSet(m.words[int(a):int(a)+n], 0)
}

// BlockSize reports the payload capacity of the block at a, which must be an
// address previously returned by Alloc.
func (m *Memory) BlockSize(a Addr) int {
	class := atomic.LoadUint64(&m.words[a-1])
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
	cap := m.BlockSize(a)
	if m.poison {
		bulkSet(m.words[int(a)+1:int(a)+cap], Poison)
	}
	m.liveBytes.Add(int64(-cap))
	class := int(atomic.LoadUint64(&m.words[a-1]))
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

// LiveWords reports the number of currently allocated payload words.
func (m *Memory) LiveWords() int64 { return m.liveBytes.Load() }

// Used reports how many words of the segment have ever been claimed from the
// bump pointer (freed blocks still count; they are recycled per class).
func (m *Memory) Used() int64 { return int64(m.next.Load()) }

// EncodeInt converts a signed value for storage in a word.
func EncodeInt(v int64) uint64 { return uint64(v) }

// DecodeInt recovers a signed value stored with EncodeInt.
func DecodeInt(v uint64) int64 { return int64(v) }
