package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/logrec"
)

// DefaultFsyncWindow is the group-commit accumulation window applied when
// Options.FsyncWindow is zero. With every shard feeding one shared fsync
// stream, half a millisecond folds the appends of dozens of concurrent
// committers into each fsync while adding less ack latency than the fsync
// itself costs; measured against eager fsync (no window) on the serving
// bench it is both faster and ~2x better batched, because the window also
// keeps the syncer from burning the disk on near-empty flushes.
const DefaultFsyncWindow = 500 * time.Microsecond

// Options parameterises a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB). Rotation happens between fsync batches, so a
	// record never spans segments.
	SegmentBytes int64
	// FsyncWindow is how long the syncer waits after the first append of
	// a batch before fsyncing, letting concurrent committers pile onto
	// the same flush (group commit). Zero means DefaultFsyncWindow;
	// negative disables the wait — the syncer then runs write+fsync
	// back to back, and batching comes only from appends that land while
	// the previous fsync is in flight.
	FsyncWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FsyncWindow == 0 {
		o.FsyncWindow = DefaultFsyncWindow
	}
	return o
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Appends counts records accepted by Append.
	Appends uint64
	// Fsyncs counts group-commit fsync batches (one fsync may cover many
	// appends — the amortization the group-commit loop exists for).
	Fsyncs uint64
	// Bytes counts bytes written to segment files.
	Bytes uint64
	// Recovered counts records replayed by Recover at open, RecoverTime
	// how long that took.
	Recovered   uint64
	RecoverTime time.Duration
	// Segments counts segment files created this run (rotation).
	Segments uint64
}

// Log is a redo write-ahead log rooted at one directory: per-shard
// sequence spaces, one shared file series, one group-commit fsync stream.
//
// Lifecycle: Open → Recover (exactly once; replays existing segments and
// arms the appenders) → Append/Wait traffic → Close.
//
//gotle:allow falseshare counters are grouped by writer with a pad between the appender and syncer groups; same-writer words share a line deliberately
type Log struct {
	dir  string
	opts Options
	// durable is, per shard, the highest seq covered by an fsync: stored
	// only under mu (the cond broadcasts over it), loaded without it, so a
	// ticket that is already durable costs one load.
	durable []durableWord

	// Stats counters, grouped by writer so each goroutine's words share a
	// line with words only it updates: appends/bytes belong to the
	// appenders, fsyncs/segments to the syncer goroutine, recovered to
	// startup. One pad splits the two concurrent writers; same-writer
	// words deliberately share their line (no ping-pong, and reading
	// Stats is cold).
	appends   atomic.Uint64
	bytes     atomic.Uint64
	recovered atomic.Uint64 // startup only, never contended
	recoverNs atomic.Int64  // startup only, never contended
	_         [32]byte      // pad: appender group and syncer group on separate lines
	fsyncs    atomic.Uint64
	segments  atomic.Uint64

	// mu guards everything below: the shared batch buffer and the active
	// segment.
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte   // framed contiguous records, not yet written
	spare   []byte   // recycled batch buffer (keeps appends alloc-free)
	bufTops []uint64 // per shard: highest seq framed into buf/file
	tops    []uint64 // scratch: bufTops snapshot cut with each batch
	onSync  func(durable []uint64)
	// ends[k] is, per shard, the last seq before segment seg0+k (Recover
	// opens seg0; each rotation adds a row): a Reader skips segments by it.
	ends    [][]uint64
	seg0    int
	f       *os.File
	segIdx  int
	segSize int64
	err     error // sticky I/O error; fails all waiters
	closed  bool
	opened  bool

	dirty chan struct{} // capacity 1: wake the syncer
	wg    sync.WaitGroup
}

// durableWord is one shard's durable watermark on its own cache line: the
// syncer stores it once per fsync and every reply of that shard loads it.
type durableWord struct {
	atomic.Uint64
	_ [56]byte
}

// Manifest pins the layout version and shard count: records are routed by
// key hash, so a reopen with a different shard count would replay records
// into the wrong shards' sequence spaces.
const manifestName = "MANIFEST"

// Open creates or reopens a log directory for the given shard count. No
// appends are accepted until Recover has run.
func Open(dir string, shards int, opts Options) (*Log, error) {
	if shards < 1 {
		return nil, fmt.Errorf("wal: shard count %d < 1", shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkManifest(dir, shards); err != nil {
		return nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts.withDefaults(),
		bufTops: make([]uint64, shards),
		durable: make([]durableWord, shards),
		tops:    make([]uint64, shards),
		dirty:   make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

func checkManifest(dir string, shards int) error {
	path := filepath.Join(dir, manifestName)
	want := fmt.Sprintf("gotle-wal v2\nshards %d\n", shards)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	if err != nil {
		return err
	}
	if string(b) != want {
		return fmt.Errorf("wal: manifest mismatch: dir has %q, this run wants %q (layout version and shard count must match the recorded log)", string(b), want)
	}
	return nil
}

// Shards reports the log's shard count.
func (l *Log) Shards() int { return len(l.bufTops) }

// segName names segment idx of the shared series.
func segName(idx int) string { return fmt.Sprintf("w-%08d.wal", idx) }

// segmentsList lists the existing segment indices in order.
func (l *Log) segmentsList() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "w-%08d.wal", &idx); n == 1 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Recover replays the segments in file order, calling apply for each
// intact record with the shard it belongs to, and then arms the log for
// appends: each shard resumes its sequence numbering after its last
// recovered record, and appends go to a fresh segment (the torn tail, if
// any, is left behind untouched for forensics — recovery never rewrites
// history).
//
// A torn or corrupt frame ends its segment, not the recovery: an earlier
// recovery that stepped over the same tear opened a later segment, and
// everything acked since lives there. What ends the recovery is a
// sequence gap: acked means fsynced, and file order is, per shard,
// sequence order, so acked records form a gapless run from the first
// segment on and nothing past a gap was ever acked.
//
// apply may be nil (scan only). The record passed to apply, its Key and Val
// included, is valid only during the call: the frames stream through one
// reused buffer, so an apply that keeps bytes must copy them. Recovery holds
// that buffer (as large as the largest frame) and one read buffer, not the
// segments. A read error other than the end of a segment fails the
// recovery. Recover returns the records replayed.
func (l *Log) Recover(apply func(shard int, r Record) error) (int, error) {
	if l.opened {
		return 0, fmt.Errorf("wal: Recover called twice")
	}
	t0 := time.Now()
	idxs, err := l.segmentsList()
	if err != nil {
		return 0, err
	}
	total := 0
	last := make([]uint64, len(l.bufTops))
	br, frame := bufio.NewReaderSize(nil, 64<<10), make([]byte, 0, 4<<10)
	for _, idx := range idxs {
		n, gap, err := replaySegment(filepath.Join(l.dir, segName(idx)), br, &frame, last, func(sh int, r Record, _ []byte) error {
			if apply == nil {
				return nil
			}
			return apply(sh, r)
		})
		total += n
		if err != nil {
			return total, err
		}
		if gap {
			break
		}
	}
	nextIdx := 0
	if n := len(idxs); n > 0 {
		nextIdx = idxs[n-1] + 1
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(nextIdx)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return total, err
	}
	l.f = f
	l.segIdx, l.seg0 = nextIdx, nextIdx
	l.ends = [][]uint64{last}
	copy(l.bufTops, last)
	l.storeDurable(last)
	l.segments.Add(1)
	l.recovered.Store(uint64(total))
	l.recoverNs.Store(int64(time.Since(t0)))
	l.opened = true
	l.wg.Add(1)
	go l.syncLoop()
	return total, nil
}

// replaySegment visits the intact records of the segment at path in file
// order, with each record's frame, continuing each shard's sequence from
// last; it reads through br into the reused *frame. A torn or corrupt frame
// ends the segment; gap reports a record that does not continue its shard's
// sequence, which ends the replay.
func replaySegment(path string, br *bufio.Reader, frame *[]byte, last []uint64, visit func(int, Record, []byte) error) (n int, gap bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br.Reset(f)
	for {
		rec, ok, err := readFrame(br, frame)
		if err != nil {
			return n, false, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if !ok {
			return n, false, nil
		}
		b := *frame
		sh := int(rec.Shard)
		if sh >= len(last) || rec.Seq != last[sh]+1 {
			// An impossible shard or a sequence gap: stop
			// conservatively, for every shard.
			return n, true, nil
		}
		if err := visit(sh, rec, b); err != nil {
			return n, false, fmt.Errorf("wal: replay shard %d seq %d: %w", sh, rec.Seq, err)
		}
		last[sh] = rec.Seq
		n++
	}
}

// readFrame reads the next frame through br into the reused *frame and
// decodes it. ok is false where the segment ends: at its end, at a torn
// frame, or at a corrupt one.
func readFrame(br *bufio.Reader, frame *[]byte) (rec Record, ok bool, err error) {
	// The length prefix only sizes the read: whether the frame is intact
	// is logrec.DecodeRecord's decision.
	b := (*frame)[:logrec.FrameHeader]
	_, err = io.ReadFull(br, b)
	if err == nil {
		size := logrec.FrameHeader + int(binary.LittleEndian.Uint32(b))
		if size > logrec.FrameHeader+logrec.MaxPayload {
			return rec, false, nil // corrupt; refused before it is allocated
		}
		b = slices.Grow(b, size-len(b))[:size]
		_, err = io.ReadFull(br, b[logrec.FrameHeader:])
	}
	*frame = b
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return rec, false, nil // the segment's end, or a torn frame
	}
	if err != nil {
		return rec, false, err
	}
	rec, _, err = logrec.DecodeRecord(b)
	return rec, err == nil, nil // corrupt: drop this segment's tail
}

// Reader reads back, in file order, the records appended to a log since
// Recover, up to the durable watermarks, and keeps its place (an open
// segment and the bytes buffered from it) between calls: each Next reads
// only what was fsynced since the one before.
type Reader struct {
	l     *Log
	seg   int      // index of the segment being read
	f     *os.File // nil until the segment is opened
	br    *bufio.Reader
	frame []byte
	after []uint64 // per shard: records at or below are read, not returned
	last  []uint64 // per shard: the last seq read
}

// NewReader returns a reader of the records above after[shard], each at or
// above the tail Recover found: the records of earlier runs are not its
// business. It starts at the segment that holds the first of them, so a
// cursor deep into the log costs no read of the segments before it.
func (l *Log) NewReader(after []uint64) (*Reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.opened || len(after) != len(l.durable) || !atOrBelow(l.ends[0], after) {
		return nil, fmt.Errorf("wal: reader cursor %v: want one at or above the recovered tail per shard, after Recover", after)
	}
	k := 0
	for k+1 < len(l.ends) && atOrBelow(l.ends[k+1], after) {
		k++
	}
	return &Reader{
		l:     l,
		seg:   l.seg0 + k,
		br:    bufio.NewReaderSize(nil, 64<<10),
		frame: make([]byte, 0, 4<<10),
		after: slices.Clone(after),
		last:  slices.Clone(l.ends[k]),
	}, nil
}

func atOrBelow(a, b []uint64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Next calls fn, in file order, with each record frame above the reader's
// cursor, up to the durable watermarks as they stood when the call began:
// a frame the syncer has written but not yet fsynced is never read. frame
// is valid only during the call. An error from fn, a read error, or a
// record that does not continue its shard's sequence ends the call and
// spends the reader.
func (r *Reader) Next(fn func(shard int, seq uint64, frame []byte) error) error {
	left := uint64(0)
	r.l.mu.Lock() // one cut: the syncer stores the words under mu
	for i := range r.l.durable {
		left += r.l.durable[i].Load()
	}
	r.l.mu.Unlock()
	for _, l := range r.last {
		left -= l // the reader's own: read outside the log's lock
	}
	// Durable frames are a prefix of the file series, so the next left
	// frames are exactly the ones to read, and no read goes past them.
	for ; left > 0; left-- {
		rec, err := r.read()
		if err != nil {
			return err
		}
		sh := int(rec.Shard)
		if sh >= len(r.last) || rec.Seq != r.last[sh]+1 {
			return fmt.Errorf("wal: segment %d: shard %d seq %d does not continue the durable run", r.seg, sh, rec.Seq)
		}
		r.last[sh] = rec.Seq
		if rec.Seq > r.after[sh] {
			if err := fn(sh, rec.Seq, r.frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// read returns the next frame, into r.frame; where a segment ends, the
// durable run goes on in the next one.
func (r *Reader) read() (Record, error) {
	for {
		if r.f == nil {
			f, err := os.Open(filepath.Join(r.l.dir, segName(r.seg)))
			if err != nil {
				return Record{}, err
			}
			r.f = f
			r.br.Reset(f)
		}
		rec, ok, err := readFrame(r.br, &r.frame)
		if err != nil {
			return rec, fmt.Errorf("wal: read segment %d: %w", r.seg, err)
		}
		if ok {
			return rec, nil
		}
		r.f.Close()
		r.f = nil
		r.seg++
	}
}

// Close releases the reader's open segment.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// Durable reports the highest sequence number of shard sh covered by an
// fsync.
func (l *Log) Durable(sh int) uint64 { return l.durable[sh].Load() }

// storeDurable publishes the per-shard watermarks in d; the caller holds
// mu, or nothing runs beside it yet.
func (l *Log) storeDurable(d []uint64) {
	for i, v := range d {
		l.durable[i].Store(v)
	}
}

// OnSync registers fn to run after each fsync with the per-shard durable
// watermarks, valid only during the call. The syncer calls it outside the
// log's lock, so fn may call Durable, but it must not block: the next group
// commit waits for it. One function at a time; call it before traffic.
func (l *Log) OnSync(fn func(durable []uint64)) {
	l.mu.Lock()
	l.onSync = fn
	l.mu.Unlock()
}

// LastSeq reports shard sh's last recovered sequence number (0 when the
// shard's log was empty). Valid after Recover; the store seeds its
// in-transaction sequence words from this.
func (l *Log) LastSeq(sh int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bufTops[sh]
}

// Ticket is a durability handle for one appended record. The zero Ticket
// is valid and already durable (Wait returns nil immediately) — callers on
// non-logging paths can wait unconditionally.
type Ticket struct {
	l     *Log
	shard int
	seq   uint64
}

// Wait blocks until the record is covered by an fsync (or the log failed
// or closed first, in which case it returns the error).
func (t Ticket) Wait() error {
	l := t.l
	if l == nil || l.Durable(t.shard) >= t.seq {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.Durable(t.shard) < t.seq && l.err == nil {
		l.cond.Wait()
	}
	if l.Durable(t.shard) >= t.seq {
		return nil
	}
	return l.err
}

// TicketFor returns the durability handle for shard sh's record seq,
// whether it has reached the log or is still upstream in the commit
// stream; on a nil log (no durability) it is the zero Ticket. A shard's
// records become durable strictly in sequence order, so the ticket for the
// shard sequence a section read covers everything that section wrote or
// observed on the shard.
func (l *Log) TicketFor(sh int, seq uint64) Ticket {
	if l == nil {
		return Ticket{}
	}
	return Ticket{l: l, shard: sh, seq: seq}
}

// Append frames one record for shard sh straight into the batch buffer;
// key and value are consumed before it returns. Like Emit it takes a
// shard's records in sequence order only. The returned Ticket's Wait
// blocks until the record is durable.
func (l *Log) Append(sh int, r Record) Ticket {
	r.Shard = uint16(sh)
	l.mu.Lock()
	if l.admitLocked(sh, r.Seq, 1) {
		l.buf = logrec.AppendRecord(l.buf, r)
	}
	l.mu.Unlock()
	l.wake()
	return l.TicketFor(sh, r.Seq)
}

// Emit appends a run of n framed records for shard sh, sequence numbers
// first..first+n-1 (logrec.Sink): one lock acquisition per run.
func (l *Log) Emit(sh int, first uint64, n int, frames []byte) {
	l.mu.Lock()
	if l.admitLocked(sh, first, n) {
		l.buf = append(l.buf, frames...)
	}
	l.mu.Unlock()
	l.wake()
}

// admitLocked advances shard sh's buffered tail over n records starting
// at first, or fails the log: reordering is logrec.Stream's job, upstream,
// and a run that does not continue the shard's sequence would leave a gap
// recovery stops at — so it poisons the log and every later ticket fails.
func (l *Log) admitLocked(sh int, first uint64, n int) bool {
	if l.err == nil {
		switch {
		case !l.opened || l.closed:
			l.err = fmt.Errorf("wal: append to closed log")
		case first != l.bufTops[sh]+1:
			l.err = fmt.Errorf("wal: shard %d: append of seq %d does not continue seq %d", sh, first, l.bufTops[sh])
		}
	}
	if l.err != nil {
		l.cond.Broadcast()
		return false
	}
	l.bufTops[sh] += uint64(n)
	l.appends.Add(uint64(n))
	return true
}

// wake nudges the syncer without blocking (the channel has capacity 1; a
// pending wakeup already covers this batch).
func (l *Log) wake() {
	select {
	case l.dirty <- struct{}{}:
	default:
	}
}

// syncLoop is the group-commit loop: each iteration waits out the fsync
// window (so concurrent committers — from every shard — pile onto the same
// flush), then takes whatever contiguous records accumulated, writes them
// with one write, makes them durable with one fsync, and releases every
// waiter they cover. One stream for all shards is what lets the window
// stay short: the whole server's mutation rate feeds each batch.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	// The dirty channel is deliberately never closed: the loop exits via
	// the closed-flag returns below after Close's final wake(), and a late
	// stray wake on the cap-1 channel is harmless. Closing it instead
	// would race the appenders' wake() send.
	for range l.dirty {
		if w := l.opts.FsyncWindow; w > 0 {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if !closed {
				// Accumulate: appends keep landing in buf while we sleep;
				// they all ride this iteration's fsync.
				time.Sleep(w)
			}
		}
		l.mu.Lock()
		if len(l.buf) == 0 {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		chunk := l.buf
		l.tops = append(l.tops[:0], l.bufTops...)
		f := l.f
		l.buf = l.spare[:0]
		l.mu.Unlock()

		// Write and fsync outside the lock: appends keep accumulating the
		// next batch while this one hits the disk.
		_, werr := f.Write(chunk)
		if werr == nil {
			werr = f.Sync()
		}

		l.mu.Lock()
		l.spare = chunk[:0] // recycle the written batch buffer
		if werr != nil {
			l.err = fmt.Errorf("wal: segment %d: %w", l.segIdx, werr)
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		l.storeDurable(l.tops)
		l.segSize += int64(len(chunk))
		l.fsyncs.Add(1)
		l.bytes.Add(uint64(len(chunk)))
		if l.segSize >= l.opts.SegmentBytes {
			if err := l.rotateLocked(); err != nil {
				l.err = err
				l.cond.Broadcast()
				l.mu.Unlock()
				return
			}
		}
		closed := l.closed && len(l.buf) == 0
		notify := l.onSync
		l.cond.Broadcast()
		l.mu.Unlock()
		if notify != nil {
			notify(l.tops) // only this goroutine writes tops
		}
		if closed {
			return
		}
	}
}

// rotateLocked closes the current (fully synced) segment and opens the
// next. Called with l.mu held, between fsync batches, so no record ever
// spans segments and a closed segment is always internally consistent.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate segment %d: %w", l.segIdx, err)
	}
	l.ends = append(l.ends, slices.Clone(l.tops)) // the watermarks just stored
	l.segIdx++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate segment %d: %w", l.segIdx, err)
	}
	l.f = f
	l.segSize = 0
	l.segments.Add(1)
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Bytes:       l.bytes.Load(),
		Recovered:   l.recovered.Load(),
		RecoverTime: time.Duration(l.recoverNs.Load()),
		Segments:    l.segments.Load(),
	}
}

// Close flushes every appended record, fsyncs, and stops the syncer.
func (l *Log) Close() error {
	if !l.opened {
		return nil
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.wake()
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	firstErr := l.err
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	// Wake any waiter that raced Close.
	if l.err == nil {
		l.err = fmt.Errorf("wal: log closed")
	}
	l.cond.Broadcast()
	return firstErr
}
