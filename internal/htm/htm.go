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
//     stamped with the attempt's generation, so the end of an attempt
//     resets it by bumping the generation; loads skip the index until the
//     attempt's first store.
//   - Reads tracked where a cache tracks them — in the reader. Each hardware
//     context owns a table of one stamp per line, and a line is in the
//     attempt's read set exactly when its stamp equals the attempt's
//     generation. Only the owner ever writes the table: registering a line
//     is one store to it, and the attempt's end releases the whole read set
//     by bumping the generation. A reader therefore writes nothing another
//     context reads or writes, so transactions on disjoint lines share no
//     modified cache line, as on TSX. Whoever needs "who reads this line" —
//     a transaction claiming it for writing, a non-transactional store, a
//     block invalidation — asks each live context's table, the way a
//     coherence request probes the other caches. The write set is a slice
//     of line numbers whose membership test is the shared line record (own
//     id in writer).
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

// MaxThreads bounds concurrent hardware transactions: the live contexts are
// one 64-bit mask.
const MaxThreads = 64

// Transaction status values, the low bits of a context's state word (in
// shared state so attackers can doom victims).
const (
	stInactive uint64 = iota
	stActive
	stCommitting
	stDoomed
	stMask = 3

	// A doomed state carries the attacker's cause above the status, and
	// every state the attempt's generation in the high half.
	causeShift = 2
	causeMask  = 0xff
	genShift   = 32
)

// stateOf is the state word of an attempt of generation gen in status st.
func stateOf(gen uint32, st uint64) uint64 { return uint64(gen)<<genShift | st }

// causeOf is the abort cause a doomed state carries.
func causeOf(state uint64) stats.AbortCause {
	return stats.AbortCause(state >> causeShift & causeMask)
}

// Config holds HTM construction parameters. Zero values select defaults.
type Config struct {
	// WriteCapacityLines bounds the write set; default 512 lines
	// (a 32 KB, 64 B/line L1).
	WriteCapacityLines int
	// ReadCapacityLines bounds the read set; default 4096 lines
	// (a 256 KB L2 tracking read sets, as on Haswell).
	ReadCapacityLines int
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

// lineRec is the shared conflict state of one 64-byte line: writer is id+1
// of the transaction with the line in its write set, or 0. Only a write
// claim lives here. Who reads the line is recorded in the readers' own
// contexts (see context), so a read leaves the record untouched.
//
// The simulator MODELS cache lines: lineRec density mirrors the modeled
// line table, and padding it would distort what the model measures.
//
//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
type lineRec struct {
	writer atomic.Uint32
}

// context is one hardware context, the shared face of thread id i's
// transactions. It belongs to the id, not to a descriptor: a thread that
// releases its id parks the descriptor here and the next NewTx(i) takes it
// over, stamps included, so a context costs its memory once however many
// short-lived threads pass through it.
type context struct {
	// state is the one word others see of the context's attempts: status
	// (and, once doomed, the attacker's cause) below, and above it the
	// generation of the running attempt or, between attempts, one no stamp
	// carries yet. The owner stores it at the two ends of an attempt and
	// loads it at every access; an attacker dooms with a CAS; a claimer
	// loads it after finding a stamp to compare the generation with. One
	// word, so the end of an attempt releases its read set and its status
	// in one store.
	state atomic.Uint64
	// stamps holds one word per line: stamps[l] equal to the generation
	// means l is in the current read set. Allocated when the id first goes
	// live and never cleared or freed; pages the thread never reads through
	// stay untouched.
	//
	//gotle:allow falseshare one writer, the context's own thread: neighbouring stamps cannot ping-pong
	stamps []atomic.Uint32
	// tx is the context's descriptor, parked here while the id is free.
	tx *Tx
	_  [24]byte // a line per context: the fields after state never change
}

// HTM is the shared state of one simulated HTM instance.
type HTM struct {
	mem *memseg.Memory
	//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
	lines []lineRec
	cfg   Config
	// eventLog is ln(1-p) for the per-access event probability p, the
	// denominator of every geometric gap draw; 0 when p is 0 or 1.
	eventLog float64
	// live has bit i set while context i has a descriptor in use. Whoever
	// looks for a line's readers asks these contexts only. It changes when
	// a thread is created or released, so the line stays shared.
	live atomic.Uint64
	ctx  []context // MaxThreads of them, in their own line-aligned block
}

// New creates an HTM simulator over the given heap.
func New(mem *memseg.Memory, cfg Config) *HTM {
	nLines := mem.Size()/memseg.WordsPerLine + 1
	h := &HTM{
		mem:   mem,
		lines: make([]lineRec, nLines),
		cfg:   cfg.withDefaults(),
		ctx:   make([]context, MaxThreads),
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
	c    *context
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
	// gen is the attempt's generation, which c.state publishes: the one
	// counter stamps index cells and read lines alike, and endAttempt's
	// bump empties the index and releases the read set together.
	gen uint32

	// stamps is c.stamps, and nReads counts the lines stamped with gen —
	// the read set's size, for the capacity model.
	//
	//gotle:allow falseshare one writer, the context's own thread: neighbouring stamps cannot ping-pong
	stamps []atomic.Uint32
	nReads int
	// writeLines lists the lines this attempt claimed in the shared line
	// records, for release. Membership is read off the record (see
	// trackWriteLine), not searched here.
	writeLines []uint32
	// Whole cache lines per descriptor (the allocator then line-aligns
	// them): threads' descriptors are allocated back to back, and without
	// the pad one thread's writeLines header, stored on every write claim,
	// shares a line with the next thread's h and c — 30 % of two-thread
	// htm-cv throughput on the Fig. 5 sets (TestTxIsWholeCacheLines).
	_ [24]byte
}

// NewTx takes hardware context id (must be < MaxThreads and not in use) and
// returns its descriptor. The first taker of an id builds the descriptor
// and the stamp table; a later one, after Release, gets both back with the
// event stream restarted, as a new descriptor's would be.
func (h *HTM) NewTx(id uint64) *Tx {
	if id >= MaxThreads {
		panic(fmt.Sprintf("htm: thread id %d exceeds MaxThreads %d", id, MaxThreads))
	}
	if h.live.Load()&(1<<id) != 0 {
		panic(fmt.Sprintf("htm: context %d is in use", id))
	}
	c := &h.ctx[id]
	seed := h.cfg.Seed ^ int64(id*2654435761+1)
	t := c.tx
	if t == nil {
		c.stamps = make([]atomic.Uint32, len(h.lines))
		c.state.Store(stateOf(1, stInactive)) // 0 is the stamp of a line never read
		t = &Tx{
			h:      h,
			c:      c,
			id:     uint32(id),
			bit:    1 << id,
			rng:    rand.New(rand.NewSource(seed)),
			gen:    1,
			stamps: c.stamps,
		}
		t.setIndex(make([]idxCell, minIndexCells))
		c.tx = t
	} else {
		t.rng.Seed(seed)
	}
	t.eventGap = t.drawEventGap()
	h.live.Or(t.bit)
	return t
}

// Release gives the context back: nobody asks it for readers any more, and
// the descriptor waits under its id for the next NewTx. The caller must be
// between attempts and must not use t again.
func (t *Tx) Release() {
	if t.live {
		panic("htm: Release inside an attempt")
	}
	t.h.live.And(^t.bit)
}

// Begin starts an attempt.
func (t *Tx) Begin() {
	if t.live {
		panic("htm: Begin on live transaction")
	}
	// A plain store: it also resets a stale doom, left by an attacker that
	// doomed us between the last attempt's cleanup and now.
	t.c.state.Store(stateOf(t.gen, stActive))
	t.writes = t.writes[:0]
	t.live = true
}

// Live reports whether an attempt is in progress.
func (t *Tx) Live() bool { return t.live }

// ReadOnly reports whether the attempt has performed no writes.
func (t *Tx) ReadOnly() bool { return len(t.writes) == 0 }

// checkDoom aborts the attempt if an attacker doomed it.
func (t *Tx) checkDoom() {
	if s := t.c.state.Load(); s&stMask == stDoomed {
		abortsig.Throw(causeOf(s))
	}
}

// maybeEvent counts one access against the gap to the next transient
// abort. The gap carries over attempt boundaries: the law is per access.
func (t *Tx) maybeEvent() {
	t.eventGap--
	if t.eventGap <= 0 {
		t.eventAbort()
	}
}

// eventAbort draws the next gap and aborts, out of line so maybeEvent inlines.
//
//go:noinline
func (t *Tx) eventAbort() {
	t.eventGap = t.drawEventGap()
	abortsig.Throw(stats.Event)
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
	return t.probe(a)
}

// probe is buffered's index lookup, out of line so buffered inlines.
//
//go:noinline
func (t *Tx) probe(a memseg.Addr) (uint64, bool) {
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
	c := &h.ctx[victim]
	for {
		s := c.state.Load()
		switch s & stMask {
		case stActive:
			if c.state.CompareAndSwap(s, s&^stMask|stDoomed|uint64(cause)<<causeShift) {
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
	for m := h.live.Load(); m != 0; m &= m - 1 {
		h.doom(uint32(bits.TrailingZeros64(m)), cause)
	}
}

// readers returns the contexts among mask that hold line in their current
// read set: the probe a coherence request makes of the other caches. The
// stamp is loaded before the generation: a stamp read as g proves attempt
// g read the line, and it counts if g is still the generation. (Generation
// first, and the owner could end attempt g-1 and read the line under g
// between the two loads, unseen.) A reader that stamps after the probe
// finds the caller's write claim in its own re-check (addReadLine).
func (h *HTM) readers(line uint32, mask uint64) uint64 {
	var found uint64
	for m := mask; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		c := &h.ctx[id]
		// A zero stamp is a line the context never read: settle that
		// without pulling in the line its owner stores to.
		if s := c.stamps[line].Load(); s != 0 && s == uint32(c.state.Load()>>genShift) {
			found |= 1 << id
		}
	}
	return found
}

// Load performs a transactional read of the word at a.
func (t *Tx) Load(a memseg.Addr) uint64 {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMConflict) {
		// Injected coherence conflict: another core's request took our line.
		abortsig.Throw(stats.Conflict)
	}
	if v, ok := t.buffered(a); ok {
		return v
	}
	t.trackReadLine(a.Line())
	t.checkDoom()
	return t.h.mem.Load(a)
}

// trackReadLine puts a line in the read set. Only this descriptor writes
// its stamps, so a stamp equal to the generation is exactly "already in the
// read set".
func (t *Tx) trackReadLine(line uint32) {
	if t.stamps[line].Load() != t.gen {
		t.addReadLine(line)
	}
}

// addReadLine registers a new line in the read set, resolving conflicts
// with concurrent writers.
func (t *Tx) addReadLine(line uint32) {
	if t.nReads >= t.h.cfg.ReadCapacityLines {
		abortsig.Throw(stats.Capacity)
	}
	t.nReads++
	rec := &t.h.lines[line]
	// Resolve against a concurrent writer, register, then re-check: the
	// re-check closes the race where a writer registers between our
	// check and our registration. The stamp is a sequentially consistent
	// store to our own memory and the writer's claim a CAS on the record;
	// each side then loads the other's word, so one of the two sees the
	// other (a claimer looks for stamps in readers). A stamp left behind
	// by an abort below goes stale with the generation.
	for {
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
			if !t.h.doom(w-1, stats.Conflict) {
				abortsig.Throw(stats.Conflict) // writer is committing
			}
			// The victim is doomed and can never flush; revoke its
			// claim immediately (hardware aborts the victim instantly,
			// our victims abort lazily at their next access). The
			// victim's own cleanup uses a conditional release, so the
			// steal is safe.
			rec.writer.CompareAndSwap(w, 0)
			continue
		}
		t.stamps[line].Store(t.gen)
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
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
		abortsig.Throw(stats.Capacity)
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
		abortsig.Throw(stats.Capacity)
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
		abortsig.Throw(stats.Conflict)
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
		abortsig.Throw(stats.Capacity)
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
				abortsig.Throw(stats.Conflict)
			}
			rec.writer.CompareAndSwap(w, t.id+1)
			continue
		}
		if rec.writer.CompareAndSwap(0, t.id+1) {
			break
		}
	}
	// Doom all other readers of the line.
	mask := t.h.readers(line, t.h.live.Load()&^t.bit)
	for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
		if mask&(1<<id) != 0 {
			if !t.h.doom(id, stats.Conflict) {
				abortsig.Throw(stats.Conflict)
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
		t.endAttempt()
		return true
	}
	if !t.c.state.CompareAndSwap(stateOf(t.gen, stActive), stateOf(t.gen, stCommitting)) {
		abortsig.Throw(causeOf(t.c.state.Load()))
	}
	// From here we cannot be doomed; flush the buffer. Readers that raced
	// with us were doomed when we claimed their lines.
	for _, w := range t.writes {
		t.h.mem.Store(w.addr, w.val)
	}
	t.endAttempt()
	return false
}

// OnAbort ends a failed attempt: it releases the line claims, and the
// write buffer, never flushed, is dropped by the next Begin. The engine
// calls this from its recover handler.
func (t *Tx) OnAbort() { t.endAttempt() }

// endAttempt ends an attempt, committed or failed: it gives back every
// write claim, releases the read set and resets status. The writer release
// is conditional: a doomed attempt's claim may have been stolen. The read
// set goes all at once — the next generation makes every stamp stale, and
// with them the index cells.
func (t *Tx) endAttempt() {
	for _, line := range t.writeLines {
		t.h.lines[line].writer.CompareAndSwap(t.id+1, 0)
	}
	t.writeLines = t.writeLines[:0]
	t.nReads = 0
	t.gen++
	if t.gen == 0 {
		// The generation wrapped: stamps and cells from 2^32 attempts ago
		// would read as current. Wipe them once and restart above the zero
		// of fresh ones. Until the store below the state still names the
		// attempt that just ended, whose stamps a claimer may still take
		// for a reader; dooming an attempt past its last check is harmless.
		clear(t.index)
		for i := range t.stamps {
			t.stamps[i].Store(0) // claimers load these concurrently
		}
		t.gen = 1
	}
	t.c.state.Store(stateOf(t.gen, stInactive))
	t.live = false
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
		mask := h.readers(line, h.live.Load())
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
	mask := h.readers(a.Line(), h.live.Load())
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
