// Package htm simulates a best-effort hardware transactional memory in the
// style of Intel TSX, which the paper's HTM results use via GCC's hardware
// path.
//
// The simulation preserves the properties the paper depends on:
//
//   - Low per-access latency: no version clock, no validation loops; an
//     access touches one line record and (for writes) a small buffer. The
//     descriptor is flat: the write buffer is a log of (addr, value) in
//     first-store order plus an open-addressed index whose cells are
//     stamped with the attempt's generation, so Begin resets it by bumping
//     the generation; loads skip the index until the attempt's first store.
//     The read and write sets are slices of line numbers, and "is this
//     line already mine" is answered by the shared line record itself (own
//     bit in readers, own id in writer).
//   - Eager, cache-line-granular conflict detection: an access that
//     conflicts with another transaction's line dooms that transaction,
//     mirroring how a coherence request aborts the TSX transaction holding
//     the line ("requester wins"); a transaction that has begun committing
//     cannot be doomed ("committing wins"), so the requester aborts instead.
//   - Capacity aborts: the write set is bounded by an L1-sized line budget
//     and the read set by an L2-sized budget. "Hardware transactions cannot
//     access more data than fits in the cache" (Section II.A).
//   - Event aborts: a seeded per-access probability models interrupts and
//     other transient causes that make best-effort HTM fail independently of
//     data conflicts. Each descriptor draws the gap to its next event from
//     the geometric distribution of that probability and counts accesses
//     down: the per-access Bernoulli law, one decrement per access.
//   - Strong isolation: non-transactional accesses participate in conflict
//     detection and doom conflicting transactions, which is why HTM needs no
//     quiescence (Section IV: "In HTM, such accesses are not possible").
//
// Writes are buffered (lazy versioning, like TSX's L1 write buffering) and
// flushed at commit; doomed transactions may observe inconsistent values
// but can never commit them, so committed transactions are serializable.
//
// Retry policy and the serial fallback lock live in the engine (package tm).
package htm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"gotle/internal/abortsig"
	"gotle/internal/chaos"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
)

// MaxThreads bounds concurrent hardware transactions; reader sets are
// per-line 64-bit thread bitmasks.
const MaxThreads = 64

// Transaction status values (per thread, in shared state so attackers can
// doom victims).
const (
	stInactive uint32 = iota
	stActive
	stCommitting
	stDoomed
)

// Config holds HTM construction parameters. Zero values select defaults.
type Config struct {
	// WriteCapacityLines bounds the write set; default 512 lines
	// (a 32 KB, 64 B/line L1).
	WriteCapacityLines int
	// ReadCapacityLines bounds the read set; default 4096 lines
	// (a 256 KB L2 tracking read sets, as on Haswell).
	ReadCapacityLines int
	// Associativity, when positive, additionally models the write buffer
	// as a set-associative cache: writes are tracked per cache set
	// (line index modulo WriteCapacityLines/Associativity sets) and a
	// transaction aborts when a set overflows its ways — the reason real
	// TSX transactions can capacity-abort far below the total L1 size
	// when their write set aliases. 0 disables the set model (flat cap).
	Associativity int
	// EventAbortPerMillion is the per-access probability (×1e-6) of a
	// transient abort (interrupt, TLB miss...). Default 5.
	EventAbortPerMillion int
	// Seed seeds the per-transaction event RNGs.
	Seed int64
	// Injector, when non-nil, is consulted at the chaos fault points
	// (forced conflict aborts on loads, forced capacity aborts on stores).
	// Unlike EventAbortPerMillion's per-descriptor RNG, injector decisions
	// are deterministic per (seed, thread, access index) and replayable by
	// seed. Nil disables injection.
	Injector *chaos.Injector
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WriteCapacityLines == 0 {
		out.WriteCapacityLines = 512
	}
	if out.ReadCapacityLines == 0 {
		out.ReadCapacityLines = 4096
	}
	if out.EventAbortPerMillion == 0 {
		out.EventAbortPerMillion = 5
	}
	return out
}

// numSets returns the number of cache sets under the associative model,
// or 0 when the model is disabled.
func (c Config) numSets() int {
	if c.Associativity <= 0 {
		return 0
	}
	sets := c.WriteCapacityLines / c.Associativity
	if sets < 1 {
		sets = 1
	}
	return sets
}

// lineRec tracks conflict state for one 64-byte line. readers is a bitmask
// of thread ids with the line in their read set; writer is id+1 of the
// transaction with the line in its write set, or 0.
//
// The simulator MODELS cache lines: lineRec density mirrors the modeled
// line table, and padding it would distort what the model measures.
//
//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
type lineRec struct {
	readers atomic.Uint64
	writer  atomic.Uint32
}

// HTM is the shared state of one simulated HTM instance.
type HTM struct {
	mem *memseg.Memory
	//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
	lines []lineRec
	//gotle:allow falseshare per-thread status words are written once per attempt, read by the owner; contention is negligible in the simulator
	status [MaxThreads]atomic.Uint32
	//gotle:allow falseshare per-thread status words are written once per attempt, read by the owner; contention is negligible in the simulator
	cause [MaxThreads]atomic.Uint32 // abort cause set by the attacker
	cfg   Config
	// eventLog is ln(1-p) for the per-access event probability p, the
	// denominator of every geometric gap draw; 0 when p is 0 or 1.
	eventLog float64
}

// New creates an HTM simulator over the given heap.
func New(mem *memseg.Memory, cfg Config) *HTM {
	nLines := mem.Size()/memseg.WordsPerLine + 1
	h := &HTM{
		mem:   mem,
		lines: make([]lineRec, nLines),
		cfg:   cfg.withDefaults(),
	}
	if ppm := h.cfg.EventAbortPerMillion; ppm > 0 && ppm < 1_000_000 {
		h.eventLog = math.Log1p(-float64(ppm) / 1e6)
	}
	return h
}

// Memory returns the heap this HTM operates on.
func (h *HTM) Memory() *memseg.Memory { return h.mem }

// bufWrite is one buffered store.
type bufWrite struct {
	addr memseg.Addr
	val  uint64
}

// idxCell is one cell of the write-buffer index: writes[pos] buffers addr,
// provided gen is the current attempt's (any other stamp means empty).
type idxCell struct {
	addr memseg.Addr
	gen  uint32
	pos  uint32
}

// minIndexCells is the index's initial size (a power of two, like every
// later size).
const minIndexCells = 64

// Tx is a per-thread hardware transaction descriptor, reused across
// attempts. Not safe for concurrent use.
type Tx struct {
	h    *HTM
	id   uint32
	bit  uint64
	rng  *rand.Rand
	live bool

	// eventGap counts accesses down to the next transient abort.
	eventGap int64

	// writes is the write buffer: one entry per distinct address, in
	// first-store order. index finds an address's entry by open addressing
	// (linear probing; the load factor stays at or below one half); a cell
	// belongs to the current attempt only when stamped with gen, so bumping
	// gen empties the index whatever size an earlier attempt grew it to.
	writes []bufWrite
	index  []idxCell
	shift  uint32 // 32 - log2(len(index))
	gen    uint32

	// writeLines and readLines list the lines this attempt registered in
	// the shared line records, for release. Membership is read off the
	// record (see trackReadLine, trackWriteLine), not searched here.
	writeLines []uint32
	readLines  []uint32
	// setOccupancy counts distinct write lines per cache set under the
	// associative model (nil when disabled).
	setOccupancy []uint8
}

// NewTx returns a descriptor for thread id (must be < MaxThreads).
func (h *HTM) NewTx(id uint64) *Tx {
	if id >= MaxThreads {
		panic(fmt.Sprintf("htm: thread id %d exceeds MaxThreads %d", id, MaxThreads))
	}
	t := &Tx{
		h:   h,
		id:  uint32(id),
		bit: 1 << id,
		rng: rand.New(rand.NewSource(h.cfg.Seed ^ int64(id*2654435761+1))),
	}
	t.setIndex(make([]idxCell, minIndexCells))
	t.eventGap = t.drawEventGap()
	if sets := h.cfg.numSets(); sets > 0 {
		t.setOccupancy = make([]uint8, sets)
	}
	return t
}

// Begin starts an attempt.
func (t *Tx) Begin() {
	if t.live {
		panic("htm: Begin on live transaction")
	}
	if !t.h.status[t.id].CompareAndSwap(stInactive, stActive) {
		// A stale doom can linger if an attacker doomed us between cleanup
		// and now; reset unconditionally.
		t.h.status[t.id].Store(stActive)
	}
	t.writes = t.writes[:0]
	t.gen++
	if t.gen == 0 {
		// The stamp wrapped: cells from 2^32 attempts ago would read as
		// current. Wipe them once and restart above the zero of fresh cells.
		clear(t.index)
		t.gen = 1
	}
	clear(t.setOccupancy)
	t.live = true
}

// Live reports whether an attempt is in progress.
func (t *Tx) Live() bool { return t.live }

// ReadOnly reports whether the attempt has performed no writes.
func (t *Tx) ReadOnly() bool { return len(t.writes) == 0 }

func (t *Tx) abort(cause stats.AbortCause) {
	abortsig.Throw(cause)
}

// checkDoom aborts the attempt if an attacker doomed it.
func (t *Tx) checkDoom() {
	if t.h.status[t.id].Load() == stDoomed {
		cause := stats.AbortCause(t.h.cause[t.id].Load())
		t.abort(cause)
	}
}

// maybeEvent counts one access against the gap to the next transient
// abort. The gap carries over attempt boundaries: the law is per access.
func (t *Tx) maybeEvent() {
	t.eventGap--
	if t.eventGap <= 0 {
		t.eventGap = t.drawEventGap()
		t.abort(stats.Event)
	}
}

// drawEventGap draws the number of accesses up to and including the next
// event abort: geometric with the configured per-access probability p, so
// that every access aborts with probability p independently of the others
// (P(gap = 1) = P(u < p) = p, and the geometric law is memoryless).
func (t *Tx) drawEventGap() int64 {
	ppm := t.h.cfg.EventAbortPerMillion
	if ppm <= 0 {
		return math.MaxInt64
	}
	if ppm >= 1_000_000 {
		return 1
	}
	u := 1 - t.rng.Float64() // (0, 1], so the quotient is finite: at most 37e6/ppm
	return 1 + int64(math.Log(u)/t.h.eventLog)
}

// setIndex installs an empty index of len(cells), a power of two.
func (t *Tx) setIndex(cells []idxCell) {
	t.index = cells
	t.shift = uint32(32 - bits.TrailingZeros(uint(len(cells))))
}

// cellFor returns the index cell that holds a, or the empty cell where a
// belongs. Multiplicative hashing on the high bits spreads the consecutive
// addresses of a range store.
func (t *Tx) cellFor(a memseg.Addr) *idxCell {
	mask := uint32(len(t.index) - 1)
	for i := uint32(a) * 2654435769 >> t.shift; ; i = (i + 1) & mask {
		if c := &t.index[i]; c.gen != t.gen || c.addr == a {
			return c
		}
	}
}

// buffered returns the attempt's own buffered value for a, if it stored
// one. An attempt that has not stored yet answers without a probe.
func (t *Tx) buffered(a memseg.Addr) (uint64, bool) {
	if len(t.writes) == 0 {
		return 0, false
	}
	if c := t.cellFor(a); c.gen == t.gen {
		return t.writes[c.pos].val, true
	}
	return 0, false
}

// buffer records the store of v to a: last write wins.
func (t *Tx) buffer(a memseg.Addr, v uint64) {
	c := t.cellFor(a)
	if c.gen == t.gen {
		t.writes[c.pos].val = v
		return
	}
	if 2*(len(t.writes)+1) > len(t.index) {
		t.growIndex()
		c = t.cellFor(a)
	}
	*c = idxCell{addr: a, gen: t.gen, pos: uint32(len(t.writes))}
	t.writes = append(t.writes, bufWrite{a, v})
}

// growIndex doubles the index mid-attempt and re-enters the buffered
// writes. Fresh cells carry stamp 0, which no attempt uses.
func (t *Tx) growIndex() {
	t.setIndex(make([]idxCell, 2*len(t.index)))
	for pos, w := range t.writes {
		*t.cellFor(w.addr) = idxCell{addr: w.addr, gen: t.gen, pos: uint32(pos)}
	}
}

// doom tries to abort the transaction with the given id (caller has observed
// a conflict with it). It reports false when the victim is committing and
// thus cannot be doomed — the caller must abort itself.
func (h *HTM) doom(victim uint32, cause stats.AbortCause) bool {
	for {
		s := h.status[victim].Load()
		switch s {
		case stActive:
			h.cause[victim].Store(uint32(cause))
			if h.status[victim].CompareAndSwap(stActive, stDoomed) {
				return true
			}
		case stCommitting:
			return false
		default: // inactive or already doomed: nothing to do
			return true
		}
	}
}

// DoomAll dooms every active transaction. The engine calls this when a
// thread acquires the serial fallback lock: on real hardware the lock
// acquisition writes a word in every transaction's read set, aborting them
// all at once.
func (h *HTM) DoomAll(cause stats.AbortCause) {
	for id := uint32(0); id < MaxThreads; id++ {
		h.doom(id, cause)
	}
}

// Load performs a transactional read of the word at a.
func (t *Tx) Load(a memseg.Addr) uint64 {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMConflict) {
		// Injected coherence conflict: another core's request took our line.
		t.abort(stats.Conflict)
	}
	if v, ok := t.buffered(a); ok {
		return v
	}
	t.trackReadLine(a.Line())
	t.checkDoom()
	return t.h.mem.Load(a)
}

// trackReadLine puts a line in the read set. Only this descriptor ever
// sets or clears its bit in a line's reader mask, and it clears it when the
// attempt ends, so the bit being set is exactly "already in the read set".
func (t *Tx) trackReadLine(line uint32) {
	if t.h.lines[line].readers.Load()&t.bit == 0 {
		t.addReadLine(line)
	}
}

// addReadLine registers a new line in the read set, resolving conflicts
// with concurrent writers.
func (t *Tx) addReadLine(line uint32) {
	if len(t.readLines) >= t.h.cfg.ReadCapacityLines {
		t.abort(stats.Capacity)
	}
	// Record the line before touching the shared record so that an
	// abort anywhere below still releases the reader bit in OnAbort
	// (clearing an unset bit is harmless).
	t.readLines = append(t.readLines, line)
	rec := &t.h.lines[line]
	// Resolve against a concurrent writer, register, then re-check: the
	// re-check closes the race where a writer registers between our
	// check and our registration.
	for {
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
			if !t.h.doom(w-1, stats.Conflict) {
				t.abort(stats.Conflict) // writer is committing
			}
			// The victim is doomed and can never flush; revoke its
			// claim immediately (hardware aborts the victim instantly,
			// our victims abort lazily at their next access). The
			// victim's own cleanup uses a conditional release, so the
			// steal is safe.
			rec.writer.CompareAndSwap(w, 0)
			continue
		}
		rec.readers.Or(t.bit)
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
			rec.readers.And(^t.bit)
			continue
		}
		break
	}
}

// Store performs a transactional (buffered) write of the word at a.
func (t *Tx) Store(a memseg.Addr, v uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMCapacity) {
		// Injected capacity abort: the write set overflowed early, as a
		// best-effort HTM is always allowed to decide.
		t.abort(stats.Capacity)
	}
	t.trackWriteLine(a.Line())
	t.buffer(a, v)
	t.checkDoom()
}

// trackWriteLine puts a line in the write set: holding the line's writer
// claim is "already in the write set".
func (t *Tx) trackWriteLine(line uint32) {
	if t.h.lines[line].writer.Load() != t.id+1 {
		t.addWriteLine(line)
	}
}

// addWriteLine registers a new line in the write set, charging the
// capacity model and claiming exclusive ownership.
func (t *Tx) addWriteLine(line uint32) {
	// A claim can be stolen, but only from an attempt that was doomed
	// first. Not being doomed after having seen another owner therefore
	// proves the line is new to the write set; a doomed attempt stops
	// here instead of charging and claiming the line a second time.
	t.checkDoom()
	if len(t.writeLines) >= t.h.cfg.WriteCapacityLines {
		t.abort(stats.Capacity)
	}
	if t.setOccupancy != nil {
		set := line % uint32(len(t.setOccupancy))
		if int(t.setOccupancy[set]) >= t.h.cfg.Associativity {
			t.abort(stats.Capacity) // set conflict: ways exhausted
		}
		t.setOccupancy[set]++
	}
	// Record before claiming: if claimLine aborts mid-way, OnAbort's
	// conditional release (CAS id+1 → 0) cleans up whatever was taken.
	t.writeLines = append(t.writeLines, line)
	t.claimLine(line)
}

// LoadRange reads the len(dst) consecutive words starting at a. Equivalent
// to dst[i] = Load(a+i), but the per-access overheads — doom check, event
// countdown, chaos injection — are paid once per call (a range is one
// access to the simulated hardware) and line tracking is amortized over
// the run.
func (t *Tx) LoadRange(a memseg.Addr, dst []uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMConflict) {
		// Injected coherence conflict: another core's request took our line.
		t.abort(stats.Conflict)
	}
	prev := int64(-1)
	for i := range dst {
		aa := a + memseg.Addr(i)
		if v, ok := t.buffered(aa); ok {
			dst[i] = v
			continue
		}
		if l := aa.Line(); int64(l) != prev {
			t.trackReadLine(l)
			prev = int64(l)
		}
		dst[i] = t.h.mem.Load(aa)
	}
	t.checkDoom()
}

// StoreRange buffers writes of the words of src to consecutive addresses
// starting at a. Equivalent to Store(a+i, src[i]) with the per-access
// overheads paid once per call; capacity is still charged per line.
func (t *Tx) StoreRange(a memseg.Addr, src []uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMCapacity) {
		// Injected capacity abort: the write set overflowed early, as a
		// best-effort HTM is always allowed to decide.
		t.abort(stats.Capacity)
	}
	prev := int64(-1)
	for i, v := range src {
		aa := a + memseg.Addr(i)
		if l := aa.Line(); int64(l) != prev {
			t.trackWriteLine(l)
			prev = int64(l)
		}
		t.buffer(aa, v)
	}
	t.checkDoom()
}

// claimLine takes exclusive write ownership of a line, dooming conflicting
// readers and writers.
func (t *Tx) claimLine(line uint32) {
	rec := &t.h.lines[line]
	// Evict a conflicting writer, stealing its claim once it is doomed.
	for {
		w := rec.writer.Load()
		if w == t.id+1 {
			break
		}
		if w != 0 {
			if !t.h.doom(w-1, stats.Conflict) {
				t.abort(stats.Conflict)
			}
			rec.writer.CompareAndSwap(w, t.id+1)
			continue
		}
		if rec.writer.CompareAndSwap(0, t.id+1) {
			break
		}
	}
	// Doom all other readers of the line.
	mask := rec.readers.Load() &^ t.bit
	for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
		if mask&(1<<id) != 0 {
			if !t.h.doom(id, stats.Conflict) {
				t.abort(stats.Conflict)
			}
			mask &^= 1 << id
		}
	}
}

// Commit atomically publishes the write buffer. Returns true when the
// transaction was read-only.
func (t *Tx) Commit() (readOnly bool) {
	if !t.live {
		panic("htm: Commit without Begin")
	}
	if len(t.writes) == 0 {
		// A Load's last doom check precedes its memory read, so a writer can
		// doom this attempt and flush in between: only an attempt still
		// undoomed after its last read has seen one consistent snapshot.
		t.checkDoom()
		t.finish()
		return true
	}
	if !t.h.status[t.id].CompareAndSwap(stActive, stCommitting) {
		t.abort(stats.AbortCause(t.h.cause[t.id].Load()))
	}
	// From here we cannot be doomed; flush the buffer. Readers that raced
	// with us were doomed when we claimed their lines.
	for _, w := range t.writes {
		t.h.mem.Store(w.addr, w.val)
	}
	t.finish()
	return false
}

// finish releases all line claims and resets status.
func (t *Tx) finish() {
	t.releaseLines()
	t.h.status[t.id].Store(stInactive)
	t.live = false
}

// OnAbort ends a failed attempt: it releases the line claims, and the
// write buffer, never flushed, is dropped by the next Begin. The engine
// calls this from its recover handler.
func (t *Tx) OnAbort() {
	t.releaseLines()
	t.h.status[t.id].Store(stInactive)
	t.live = false
}

// releaseLines gives back every line claim and reader bit and empties both
// sets. The writer release is conditional: a doomed attempt's claim may
// have been stolen.
func (t *Tx) releaseLines() {
	for _, line := range t.writeLines {
		t.h.lines[line].writer.CompareAndSwap(t.id+1, 0)
	}
	for _, line := range t.readLines {
		t.h.lines[line].readers.And(^t.bit)
	}
	t.writeLines = t.writeLines[:0]
	t.readLines = t.readLines[:0]
}

// InvalidateBlock dooms every transaction with any line of the block
// [a, a+words) in its read or write set. The engine calls this before
// returning a block to the allocator: on hardware, the recycled lines would
// be invalidated by the next owner's writes, aborting stale readers — which
// is why HTM needs no pre-free quiescence.
func (h *HTM) InvalidateBlock(a memseg.Addr, words int) {
	first := a.Line()
	last := (a + memseg.Addr(words) - 1).Line()
	for line := first; line <= last; line++ {
		rec := &h.lines[line]
		if w := rec.writer.Load(); w != 0 {
			if h.doom(w-1, stats.Conflict) {
				rec.writer.CompareAndSwap(w, 0)
			}
		}
		mask := rec.readers.Load()
		for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
			if mask&(1<<id) != 0 {
				h.doom(id, stats.Conflict)
				mask &^= 1 << id
			}
		}
	}
}

// NontxLoad is a strongly isolated non-transactional read: it dooms any
// transaction writing the line, then reads committed memory.
func (h *HTM) NontxLoad(a memseg.Addr) uint64 {
	rec := &h.lines[a.Line()]
	var b spinwait.Backoff
	for {
		w := rec.writer.Load()
		if w == 0 {
			break
		}
		if h.doom(w-1, stats.Conflict) {
			rec.writer.CompareAndSwap(w, 0)
			break
		}
		// Writer is committing: its flush is running on a live goroutine
		// and bounded, so wait it out.
		b.Wait()
	}
	v := h.mem.Load(a)
	// A writer may have claimed the line between the check and the read; on
	// hardware our read would invalidate its line, so doom it (best effort:
	// if it already reached Committing its flush wins and our caller sees
	// either value, both of which are legal outcomes of the race).
	if w := rec.writer.Load(); w != 0 {
		h.doom(w-1, stats.Conflict)
	}
	return v
}

// NontxStore is a strongly isolated non-transactional write: it dooms any
// transaction reading or writing the line, then writes memory.
func (h *HTM) NontxStore(a memseg.Addr, v uint64) {
	rec := &h.lines[a.Line()]
	var b spinwait.Backoff
	for {
		w := rec.writer.Load()
		if w == 0 {
			break
		}
		if h.doom(w-1, stats.Conflict) {
			rec.writer.CompareAndSwap(w, 0)
			break
		}
		b.Wait()
	}
	mask := rec.readers.Load()
	for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
		if mask&(1<<id) != 0 {
			// Readers that are committing are read-only on this line’s
			// value flow; their commit does not depend on future values,
			// so it is safe to proceed without dooming them.
			h.doom(id, stats.Conflict)
			mask &^= 1 << id
		}
	}
	h.mem.Store(a, v)
	// Doom any transaction that claimed the line while we were writing, so
	// its buffered value cannot silently overwrite ours at flush time.
	if w := rec.writer.Load(); w != 0 {
		h.doom(w-1, stats.Conflict)
	}
}
