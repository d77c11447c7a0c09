package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	// Recovered counts records replayed by Recover at open.
	Recovered uint64
	// Segments counts segment files created this run (rotation).
	Segments uint64
	// BaseRecords is the record count of the base the MANIFEST commits:
	// what a restart replays before the segments.
	BaseRecords uint64
	// Compactions counts the compactions the history has been through,
	// the MANIFEST's count.
	Compactions uint64
}

// Log is a redo write-ahead log rooted at one directory: per-shard
// sequence spaces, one shared file series, one group-commit fsync stream,
// and a base file that holds the live set of the history compacted so far.
//
// Lifecycle: Open → Recover (exactly once; replays the base and the
// segments above it and arms the appenders) → Append/Wait traffic → Close
// (compacts the history into a new base).
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
	_         [40]byte      // pad: appender group and syncer group on separate lines
	fsyncs    atomic.Uint64
	segments  atomic.Uint64
	// The committed MANIFEST's, written at Open and by Close's compaction.
	baseRecs    atomic.Uint64
	compactions atomic.Uint64

	// man is the committed MANIFEST: Open reads it, and only Close's
	// compaction, once the syncer has stopped, replaces it.
	man manifest

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

// MANIFEST pins the layout version and shard count: records are routed by
// key hash, so a reopen with a different shard count would replay records
// into the wrong shards' sequence spaces, and a log of another frame format
// (v2 framed with IEEE CRCs) would replay as empty. Since v4 it also
// commits the base, if a compaction has written one. A v3 MANIFEST (the
// same frames, no base) opens as a log with no base.
const manifestName, manifestVersion = "MANIFEST", "gotle-wal v4"

// manifest is a MANIFEST's content. The base b-<seg>.wal holds the live
// set of every record of the segments below seg: each key's last set, in
// file order, under its own shard and sequence number. through is, per
// shard, the last sequence number those segments held, so the segments
// from seg on continue each shard from there; size and records are the
// base's length in bytes and in records, and compactions counts the
// compactions the history has been through. through is nil when there is
// no base. The body's base line is "base seg size records compactions
// through...".
type manifest struct {
	shards, seg                int
	size, records, compactions uint64
	through                    []uint64
}

func manifestBody(shards int) string {
	return fmt.Sprintf("%s\nshards %d\n", manifestVersion, shards)
}

func (m manifest) body() string {
	b := manifestBody(m.shards)
	if m.through == nil {
		return b
	}
	b += fmt.Sprintf("base %d %d %d %d", m.seg, m.size, m.records, m.compactions)
	for _, t := range m.through {
		b += fmt.Sprintf(" %d", t)
	}
	return b + "\n"
}

// baseName names the base that covers the segments below seg.
func baseName(seg int) string { return fmt.Sprintf("b-%08d.wal", seg) }

// parseManifest reads MANIFEST's content; it must be one this run wrote for
// the same shard count.
func parseManifest(b string, shards int) (manifest, error) {
	m := manifest{shards: shards}
	if b == fmt.Sprintf("gotle-wal v3\nshards %d\n", shards) {
		return m, nil
	}
	want := manifestBody(shards)
	rest, ok := strings.CutPrefix(b, want)
	if !ok {
		return m, fmt.Errorf("wal: manifest mismatch: dir has %q, this run wants %q (layout version and shard count must match the recorded log)", b, want)
	}
	if rest == "" {
		return m, nil
	}
	f := strings.Fields(rest)
	if len(f) != 5+shards || f[0] != "base" {
		return m, fmt.Errorf("wal: manifest %q: bad base line", b)
	}
	v := make([]uint64, 4+shards)
	for i := range v {
		var err error
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return m, fmt.Errorf("wal: manifest %q: %w", b, err)
		}
	}
	m.seg, m.size, m.records, m.compactions, m.through = int(v[0]), v[1], v[2], v[3], v[4:]
	return m, nil
}

// Open creates or reopens a log directory for the given shard count. No
// appends are accepted until Recover has run.
func Open(dir string, shards int, opts Options) (*Log, error) {
	if shards < 1 {
		return nil, fmt.Errorf("wal: shard count %d < 1", shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := readManifest(dir, shards)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts.withDefaults(),
		bufTops: make([]uint64, shards),
		durable: make([]durableWord, shards),
		tops:    make([]uint64, shards),
		dirty:   make(chan struct{}, 1),
		man:     man,
	}
	l.baseRecs.Store(man.records)
	l.compactions.Store(man.compactions)
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// readManifest reads dir's MANIFEST, writing a fresh one where there is none.
func readManifest(dir string, shards int) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return manifest{shards: shards}, writeManifest(dir, path, manifestBody(shards))
	}
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(string(b), shards)
}

// writeManifest writes MANIFEST whole or not at all: the body goes to a
// temporary file, which is fsynced and renamed to MANIFEST, and then the
// directory is fsynced so that the name lasts. A crash before the rename
// leaves only the temporary file, which the next start writes over.
func writeManifest(dir, path, body string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fsEvent("manifest-tmp")
	_, err = f.WriteString(body)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	fsEvent("manifest")
	return syncDir(dir)
}

// createSegment creates segment idx. Its name is durable only once the
// directory is fsynced (syncDir), and the records fsynced into the file
// are acked, so each caller fsyncs the directory before any record in the
// segment can be acked.
func (l *Log) createSegment(idx int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	fsEvent("create")
	return f, nil
}

// syncDir fsyncs the directory dir.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	fsEvent("syncdir")
	return err
}

// fsEvents, when set, is told each file-system step the log takes whose
// order durability rests on: "manifest-tmp" (MANIFEST's temporary file
// created), "manifest" (renamed into place), "create" (a segment),
// "syncdir", "written" (a batch written to its segment, not yet fsynced)
// and "durable" (an fsync that moved the durable watermarks, so acks).
// Tests set it.
var fsEvents func(event string)

func fsEvent(ev string) {
	if fsEvents != nil {
		fsEvents(ev)
	}
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

// segmentsFrom lists the existing segments from index from on: those below
// the base's are compacted into it, and outlive it only where a crash cut
// a compaction short between its MANIFEST and their removal.
func (l *Log) segmentsFrom(from int) ([]int, error) {
	idxs, err := l.segmentsList()
	i, _ := slices.BinarySearch(idxs, from)
	return idxs[i:], err
}

// Recover replays the history, calling apply for each intact record with
// the shard it belongs to: first the base the MANIFEST commits, then the
// segments above it in file order. Then it arms the log for appends: each
// shard resumes its sequence numbering after its last recovered record,
// and appends go to a fresh segment. A torn tail, if any, stays where it
// is until a compaction drops it with the segment that holds it.
//
// The base was fsynced before the MANIFEST named it, so it must read back
// whole: a base that does not is a failed recovery. In the segments, a torn
// or corrupt frame ends its segment, not the recovery: an earlier recovery
// that stepped over the same tear opened a later segment, and everything
// acked since lives there. What ends the recovery is a sequence gap, each
// shard's sequence counted on from the base's through-sequence: acked means
// fsynced, and file order is, per shard, sequence order, so acked records
// form a gapless run from the base on and nothing past a gap was ever
// acked.
//
// apply may be nil (scan only). The record passed to apply, its Key and Val
// included, is valid only during the call: each frame is decoded in place in
// the one read buffer the files stream through, so an apply that keeps
// bytes must copy them. Recover holds that buffer (scanBytes, or the
// largest frame if that is larger) and no frame buffer, not the files. A
// read error other than the end of a segment fails the recovery. Recover
// returns the records replayed.
func (l *Log) Recover(apply func(shard int, r Record) error) (int, error) {
	if l.opened {
		return 0, fmt.Errorf("wal: Recover called twice")
	}
	segs, err := l.segmentsFrom(l.man.seg)
	if err != nil {
		return 0, err
	}
	last, total, err := l.scanHistory(l.man, segs, func(sh int, r Record, _ []byte) error {
		if apply == nil {
			return nil
		}
		return apply(sh, r)
	})
	if err != nil {
		return total, err
	}
	nextIdx := l.man.seg
	if n := len(segs); n > 0 {
		nextIdx = segs[n-1] + 1
	}
	f, err := l.createSegment(nextIdx)
	if err != nil {
		return total, err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return total, err
	}
	l.f = f
	l.segIdx, l.seg0 = nextIdx, nextIdx
	l.ends = [][]uint64{last}
	copy(l.bufTops, last)
	l.storeDurable(last)
	l.segments.Add(1)
	l.recovered.Store(uint64(total))
	l.opened = true
	l.wg.Add(1)
	go l.syncLoop()
	return total, nil
}

// scanHistory replays base m and then segments segs, stopping at a gap,
// and returns each shard's last sequence number and the records replayed.
func (l *Log) scanHistory(m manifest, segs []int, fn func(sh int, r Record, frame []byte) error) ([]uint64, int, error) {
	last := make([]uint64, len(l.bufTops))
	var sc scanner
	total := 0
	if m.through != nil {
		path := filepath.Join(l.dir, baseName(m.seg))
		n, size, stop, err := replayFile(path, &sc, last, m.through, fn)
		total += n
		if err == nil && (stop || size != m.size) {
			err = fmt.Errorf("wal: base %s: %d intact bytes in order, MANIFEST commits %d", path, size, m.size)
		}
		if err != nil {
			return last, total, err
		}
		copy(last, m.through)
	}
	for _, idx := range segs {
		n, _, gap, err := replayFile(filepath.Join(l.dir, segName(idx)), &sc, last, nil, fn)
		total += n
		if err != nil || gap {
			return last, total, err
		}
	}
	return last, total, nil
}

// replayFile replays the intact records of the file at path in file order
// through sc, moving last on. In a segment (through nil) each record must
// continue its shard's sequence from last; in a base it must rise within
// its shard's through-sequence. A torn or corrupt frame ends the file;
// stop reports a record that breaks the rule, which ends the replay. size
// is the bytes of the records replayed.
func replayFile(path string, sc *scanner, last, through []uint64, fn func(int, Record, []byte) error) (n int, size uint64, stop bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	sc.reset(f)
	for {
		rec, frame, ok, err := sc.next()
		if err != nil {
			return n, size, false, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if !ok {
			return n, size, false, nil
		}
		sh := int(rec.Shard)
		if sh >= len(last) || rec.Seq <= last[sh] || through == nil && rec.Seq > last[sh]+1 || through != nil && rec.Seq > through[sh] {
			// An impossible shard, a sequence gap, or a base record
			// out of order: stop conservatively, for every shard.
			return n, size, true, nil
		}
		if err := fn(sh, rec, frame); err != nil {
			return n, size, false, fmt.Errorf("wal: replay shard %d seq %d: %w", sh, rec.Seq, err)
		}
		last[sh] = rec.Seq
		size += uint64(len(frame))
		n++
	}
}

// compact rewrites the history (the committed base, then segments segs) as
// a new base covering the segments below next, the history's live set:
// each key's last set, in file order, with deletes, superseded sets and
// whatever lies past a gap dropped. It reads the history twice, once for
// each key's last record and once to copy the frames of the sets that are
// last. The base is written to a temporary file, fsynced and renamed; a
// new MANIFEST commits it; only then are its inputs removed, and the
// directory fsynced. A crash at any step leaves a directory that recovers
// the same state: the old MANIFEST with all its inputs, or the new one.
func (l *Log) compact(segs []int, next int) error {
	lastOf := map[string]int{} // a key's last set, if it is the key's last record: its place + 1
	i := 0
	through, _, err := l.scanHistory(l.man, segs, func(_ int, r Record, _ []byte) error {
		i++
		if r.Op == OpSet {
			lastOf[string(r.Key)] = i
		} else {
			delete(lastOf, string(r.Key))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := filepath.Join(l.dir, baseName(next))
	f, err := os.OpenFile(name+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	m := manifest{shards: len(through), seg: next, through: through, compactions: l.man.compactions + 1}
	w := bufio.NewWriterSize(f, 64<<10)
	i = 0
	if _, _, err := l.scanHistory(l.man, segs, func(_ int, r Record, frame []byte) (err error) {
		if i++; lastOf[string(r.Key)] == i {
			m.size += uint64(len(frame))
			m.records++
			_, err = w.Write(frame)
		}
		return err
	}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fsEvent("base-written")
	if err := f.Sync(); err != nil {
		return err
	}
	fsEvent("base-synced")
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(name+".tmp", name); err != nil {
		return err
	}
	fsEvent("base-renamed")
	if err := writeManifest(l.dir, filepath.Join(l.dir, manifestName), m.body()); err != nil {
		return err
	}
	l.man = m
	l.baseRecs.Store(m.records)
	l.compactions.Store(m.compactions)
	// The inputs, any older base or one a crash left uncommitted, and the
	// segments a crash left behind their base.
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		var idx int
		old := strings.HasPrefix(e.Name(), "b-") && e.Name() != baseName(next)
		if n, _ := fmt.Sscanf(e.Name(), "w-%08d.wal", &idx); n == 1 && idx < next || old {
			if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return err
			}
			fsEvent("remove")
		}
	}
	return syncDir(l.dir)
}

// scanBytes is the size of a scanner's reads. A variable only so that tests
// can cut frames across reads.
var scanBytes = 64 << 10

// scanner reads one segment through one reused buffer, scanBytes at a
// time, and decodes each frame in place. A frame cut by the end of a read
// moves to the front of the buffer before the next; the buffer grows only
// to hold a frame larger than a read, of at most logrec.MaxPayload.
type scanner struct {
	f        *os.File
	buf      []byte
	pos, end int // buf[pos:end] is read and not yet decoded
}

// reset points the scanner at the start of segment file f.
func (s *scanner) reset(f *os.File) { s.f, s.pos, s.end = f, 0, 0 }

// next decodes the segment's next frame. ok is false where the segment
// ends: at its end, at a torn frame, or at a corrupt one. frame, and rec's
// Key and Val, alias the buffer until the next call.
func (s *scanner) next() (rec Record, frame []byte, ok bool, err error) {
	for {
		rec, n, err := logrec.DecodeRecord(s.buf[s.pos:s.end])
		if err == nil {
			s.pos += n
			return rec, s.buf[s.pos-n : s.pos], true, nil
		}
		if err != logrec.ErrTorn {
			return rec, nil, false, nil // corrupt: drop this segment's tail
		}
		// Move the torn frame to the front, make room for all of it (its
		// length, being torn, not corrupt, is at most MaxPayload), read on.
		s.end, s.pos = copy(s.buf, s.buf[s.pos:s.end]), 0
		need := logrec.FrameHeader
		if s.end >= need {
			need += int(binary.LittleEndian.Uint32(s.buf))
		}
		if need = max(need, scanBytes); need > len(s.buf) {
			s.buf = slices.Grow(s.buf[:s.end], need-s.end)[:need]
		}
		m, err := s.f.Read(s.buf[s.end:])
		if m == 0 {
			if err == io.EOF {
				err = nil
			}
			return rec, nil, false, err // the segment's end, or a torn frame
		}
		s.end += m
	}
}

// Reader reads back, in file order, the records appended to a log since
// Recover, up to the durable watermarks, and keeps its place (an open
// segment and the bytes read from it but not yet returned) between calls:
// each Next goes on where the one before stopped.
type Reader struct {
	l     *Log
	seg   int      // index of the segment being read
	sc    scanner  // sc.f is nil until the segment is opened
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
	// frames are exactly the ones to return. A read may take in bytes past
	// them, of frames still being written; they wait in the scanner's
	// buffer for a later call.
	for ; left > 0; left-- {
		rec, frame, err := r.read()
		if err != nil {
			return err
		}
		sh := int(rec.Shard)
		if sh >= len(r.last) || rec.Seq != r.last[sh]+1 {
			return fmt.Errorf("wal: segment %d: shard %d seq %d does not continue the durable run", r.seg, sh, rec.Seq)
		}
		r.last[sh] = rec.Seq
		if rec.Seq > r.after[sh] {
			if err := fn(sh, rec.Seq, frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// read returns the next frame; where a segment ends, the durable run goes
// on in the next one.
func (r *Reader) read() (Record, []byte, error) {
	for {
		if r.sc.f == nil {
			f, err := os.Open(filepath.Join(r.l.dir, segName(r.seg)))
			if err != nil {
				return Record{}, nil, err
			}
			r.sc.reset(f)
		}
		rec, frame, ok, err := r.sc.next()
		if err != nil {
			return rec, nil, fmt.Errorf("wal: read segment %d: %w", r.seg, err)
		}
		if ok {
			return rec, frame, nil
		}
		r.Close()
		r.seg++
	}
}

// Close releases the reader's open segment.
func (r *Reader) Close() {
	if r.sc.f != nil {
		r.sc.f.Close()
		r.sc.reset(nil)
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
			fsEvent("written")
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
		fsEvent("durable")
		l.segSize += int64(len(chunk))
		l.fsyncs.Add(1)
		l.bytes.Add(uint64(len(chunk)))
		rotate := l.segSize >= l.opts.SegmentBytes
		if rotate {
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
		if rotate {
			// The new segment's name must be durable before the next
			// write into it can be acked; only this goroutine writes.
			if err := syncDir(l.dir); err != nil {
				l.mu.Lock()
				l.err = fmt.Errorf("wal: rotate segment %d: %w", l.segIdx, err)
				l.cond.Broadcast()
				l.mu.Unlock()
				return
			}
		}
		if closed {
			return
		}
	}
}

// rotateLocked closes the current (fully synced) segment and opens the
// next. Called with l.mu held, between fsync batches, so no record ever
// spans segments and a closed segment is always internally consistent.
// The caller fsyncs the directory after unlocking, before its next write.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate segment %d: %w", l.segIdx, err)
	}
	l.ends = append(l.ends, slices.Clone(l.tops)) // the watermarks just stored
	l.segIdx++
	f, err := l.createSegment(l.segIdx)
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
		Segments:    l.segments.Load(),
		BaseRecords: l.baseRecs.Load(),
		Compactions: l.compactions.Load(),
	}
}

// Close flushes every appended record, fsyncs and stops the syncer, and
// then compacts the history into a new base, so that the next start
// replays the live set: the segments a kill left behind are compacted by
// the next clean Close. A log that replayed nothing past its base and had
// nothing appended has nothing to compact: its segments hold no record
// the base lacks, and it removes them instead. A log that failed closes
// without compacting and returns that error.
func (l *Log) Close() error {
	if !l.opened {
		return nil
	}
	if err := l.stop(); err != nil {
		return err
	}
	segs, err := l.segmentsFrom(l.man.seg)
	if err != nil {
		return err
	}
	if l.appends.Load() != 0 || l.recovered.Load() != l.man.records {
		return l.compact(segs, l.segIdx+1)
	}
	for _, idx := range segs {
		if err := os.Remove(filepath.Join(l.dir, segName(idx))); err != nil {
			return err
		}
	}
	return syncDir(l.dir)
}

// stop flushes every appended record, fsyncs, stops the syncer and fails
// later appends and waits; it returns the log's first error.
func (l *Log) stop() error {
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
