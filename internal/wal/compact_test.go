package wal

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gotle/internal/logrec"
)

// liveState is what a history leaves: each key's last set (a key whose
// last record is a delete is absent) and each shard's last sequence number.
type liveState struct {
	keys map[string]Record
	last []uint64
}

// fold applies one replayed record to the state.
func (s *liveState) fold(sh int, r Record) error {
	if r.Op == OpDelete {
		delete(s.keys, string(r.Key))
		return nil
	}
	r.Shard, r.Key, r.Val = uint16(sh), bytes.Clone(r.Key), bytes.Clone(r.Val)
	s.keys[string(r.Key)] = r
	return nil
}

func (s liveState) equal(o liveState) bool {
	return slices.Equal(s.last, o.last) && maps.EqualFunc(s.keys, o.keys, func(a, b Record) bool {
		return a.Seq == b.Seq && a.Shard == b.Shard && a.Flags == b.Flags && bytes.Equal(a.Val, b.Val)
	})
}

func (s liveState) String() string {
	return fmt.Sprintf("%d live keys, last %v", len(s.keys), s.last)
}

// recoverState recovers dir and halts the log: it returns the state the
// replay leaves and the records it replayed, or the recovery's error.
func recoverState(t testing.TB, dir string, shards int) (liveState, int, error) {
	t.Helper()
	st := liveState{keys: map[string]Record{}}
	l, err := Open(dir, shards, Options{})
	if err != nil {
		return st, 0, err
	}
	n, err := l.Recover(st.fold)
	if err != nil {
		return st, n, err
	}
	st.last = make([]uint64, shards)
	for i := range st.last {
		st.last[i] = l.LastSeq(i)
	}
	halt(t, l)
	return st, n, nil
}

// appendMixed appends n records over keys keys to l: one delete in four,
// each on the shard key index mod shards, continuing seq.
func appendMixed(t testing.TB, l *Log, seq []uint64, n, keys int, tag string) {
	t.Helper()
	var last Ticket
	for i := 0; i < n; i++ {
		k := (i*7 + len(tag)) % keys
		sh := k % len(seq)
		seq[sh]++
		r := mkRecord(seq[sh], OpSet, fmt.Sprintf("key:%d", k), fmt.Sprintf("%s-%d", tag, i), uint32(i))
		if i%4 == 3 {
			r.Op, r.Val = OpDelete, nil
		}
		last = l.Append(sh, r)
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
}

// dirNames lists dir's file names.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestCloseCompactsToLiveSet: Close rewrites the history as a base of its
// live set, each key's last set under its own sequence number, in file
// order; the directory holds that base and the MANIFEST only; a restart
// replays exactly the live set and continues each shard's sequence after
// its last record, deletes included.
func TestCloseCompactsToLiveSet(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	l, _ := openLog(t, dir, shards, Options{SegmentBytes: 1 << 10}, nil)
	seq := make([]uint64, shards)
	appendMixed(t, l, seq, 600, 40, "a")
	halt(t, l)
	want, n, err := recoverState(t, dir, shards)
	if err != nil || n != 600 {
		t.Fatalf("full replay: %d records, %v", n, err)
	}

	l, _ = openLog(t, dir, shards, Options{}, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 2 || names[0] != manifestName || !strings.HasPrefix(names[1], "b-") {
		t.Fatalf("compacted directory holds %v, want a base and the MANIFEST", names)
	}
	var seqs [shards][]uint64
	l, n = openLog(t, dir, shards, Options{}, func(sh int, r Record) error {
		seqs[sh] = append(seqs[sh], r.Seq)
		if w, ok := want.keys[string(r.Key)]; !ok || w.Seq != r.Seq || !bytes.Equal(w.Val, r.Val) {
			return fmt.Errorf("base record %q seq %d is not the key's last set", r.Key, r.Seq)
		}
		return nil
	})
	if n != len(want.keys) {
		t.Fatalf("replayed %d records, want the %d live keys", n, len(want.keys))
	}
	for sh := range seqs {
		if !slices.IsSorted(seqs[sh]) || l.LastSeq(sh) != want.last[sh] {
			t.Fatalf("shard %d: seqs %v, LastSeq %d; want rising, ending at %d", sh, seqs[sh], l.LastSeq(sh), want.last[sh])
		}
	}
	if st := l.Stats(); st.Recovered != uint64(n) || st.BaseRecords != uint64(n) {
		t.Fatalf("stats %+v: want %d recovered and in the base", st, n)
	}
	// The next records continue the sequences; Close compacts again.
	appendMixed(t, l, seq, 100, 40, "b")
	if err := l.Close(); err != nil || l.Stats().Compactions != 2 {
		t.Fatalf("Close: %v, %d compactions; want the history's second", err, l.Stats().Compactions)
	}
}

// TestV3DirectoryOpensWithoutBase: a log written under the v3 MANIFEST (the
// same frames, no base) recovers every record, and its first Close commits
// a v4 MANIFEST with a base.
func TestV3DirectoryOpensWithoutBase(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, 50, 512, func(seq uint64) Record {
		return mkRecord(seq, OpSet, fmt.Sprintf("key:%d", seq%10), "v", 0)
	})
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("gotle-wal v3\nshards 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, n := openLog(t, dir, 1, Options{}, nil)
	if n != 50 || l.LastSeq(0) != 50 {
		t.Fatalf("v3 log: %d records, LastSeq %d; want 50, 50", n, l.LastSeq(0))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || !strings.HasPrefix(string(b), manifestVersion+"\nshards 1\nbase ") {
		t.Fatalf("MANIFEST after Close: %q, %v", b, err)
	}
	if _, n, err := recoverState(t, dir, 1); n != 10 || err != nil {
		t.Fatalf("compacted v3 log: %d records, %v; want the 10 live keys", n, err)
	}
}

// TestCloseCompactsAKillsTail: a restart from a base and the segments a
// kill left recovers them without compacting; its Close compacts them into
// a new base, with nothing appended too, and the MANIFEST's count of
// compactions survives the restart; a bare base closed with nothing
// appended compacts nothing and drops the empty segments that its own and
// earlier recoveries opened.
func TestCloseCompactsAKillsTail(t *testing.T) {
	dir := t.TempDir()
	const shards = 2
	l, _ := openLog(t, dir, shards, Options{SegmentBytes: 1 << 10}, nil)
	seq := make([]uint64, shards)
	appendMixed(t, l, seq, 300, 30, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openLog(t, dir, shards, Options{SegmentBytes: 1 << 10}, nil)
	appendMixed(t, l, seq, 300, 30, "b")
	halt(t, l)
	want, _, err := recoverState(t, dir, shards)
	if err != nil {
		t.Fatal(err)
	}

	steps := 0
	fsEvents = func(ev string) {
		if strings.HasPrefix(ev, "base-") {
			steps++
		}
	}
	defer func() { fsEvents = nil }()
	l, _ = openLog(t, dir, shards, Options{}, nil)
	if st := l.Stats(); steps != 0 || st.Compactions != 1 {
		t.Fatalf("a restart from a base and a tail: %d compaction steps, Compactions %d; want 0, 1", steps, st.Compactions)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); steps == 0 || len(names) != 2 {
		t.Fatalf("Close of a base and a tail ran %d compaction steps and left %v; want a base and the MANIFEST", steps, names)
	}
	if got, _, err := recoverState(t, dir, shards); err != nil || !got.equal(want) {
		t.Fatalf("compacted tail recovered %v, %v; want %v", got, err, want)
	}

	steps = 0
	l, _ = openLog(t, dir, shards, Options{}, nil)
	if c := l.Stats().Compactions; c != 2 {
		t.Fatalf("Compactions %d after two compactions and a restart", c)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); steps != 0 || len(names) != 2 {
		t.Fatalf("Close of a bare base with nothing appended ran %d compaction steps and left %v", steps, names)
	}
}

// TestCompactionCrashPoints copies the log directory at each step of a
// compaction (base written, fsynced, renamed, the MANIFEST's temporary
// file, its rename, each removal, each directory fsync) as a power loss
// would leave it: a base whose bytes were written but not yet fsynced is
// cut in half. Every copy must recover the state before the compaction,
// exactly. A compactor that removed its inputs before the MANIFEST commit,
// or one that renamed its base before fsyncing it, fails here.
func TestCompactionCrashPoints(t *testing.T) {
	dir := t.TempDir()
	const shards = 3
	l, _ := openLog(t, dir, shards, Options{SegmentBytes: 1 << 10}, nil)
	seq := make([]uint64, shards)
	appendMixed(t, l, seq, 300, 40, "a")
	if err := l.Close(); err != nil { // a base, so the crash-point run has an old one
		t.Fatal(err)
	}
	l, _ = openLog(t, dir, shards, Options{SegmentBytes: 1 << 10}, nil)
	appendMixed(t, l, seq, 300, 40, "b")
	halt(t, l)
	oldBase := dirNames(t, dir)[1]
	ref := filepath.Join(t.TempDir(), "ref")
	copyDir(t, dir, ref)
	want, _, err := recoverState(t, ref, shards)
	if err != nil {
		t.Fatal(err)
	}

	var steps []string
	var copies []string
	synced := true
	fsEvents = func(ev string) {
		switch ev {
		case "base-written":
			synced = false
		case "base-synced":
			synced = true
		case "create", "durable", "written":
			return
		}
		c := filepath.Join(t.TempDir(), "crash")
		copyDir(t, dir, c)
		for _, name := range dirNames(t, c) {
			if strings.HasPrefix(name, "b-") && name != oldBase && !synced {
				p := filepath.Join(c, name)
				fi, err := os.Stat(p)
				if err != nil {
					t.Error(err)
					continue
				}
				if err := os.Truncate(p, fi.Size()/2); err != nil {
					t.Error(err)
				}
			}
		}
		steps, copies = append(steps, ev), append(copies, c)
	}
	l, _ = openLog(t, dir, shards, Options{}, nil)
	err = l.Close()
	fsEvents = nil
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(steps, "base-synced") || !slices.Contains(steps, "remove") {
		t.Fatalf("compaction steps %v: no base fsync or no removal", steps)
	}
	for i, c := range copies {
		got, _, err := recoverState(t, c, shards)
		if err != nil || !got.equal(want) {
			t.Errorf("crash after step %d (%s) of %v: recovered %v, %v; want %v", i, steps[i], steps, got, err, want)
		}
	}
}

// FuzzCompaction is differential: a generated history (up to four shards,
// sets and deletes over a few keys, segments of any size, the last one cut
// anywhere) must recover to the same live set and the same per-shard last
// sequence numbers whether replayed record by record or from its compacted
// form; a second history on top of that base must too; and a compaction
// cut mid-frame while writing its base, before its MANIFEST, must recover
// the state the previous MANIFEST commits.
func FuzzCompaction(f *testing.F) {
	f.Add(byte(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 130, 131, 7, 200, 4}, []byte{1, 1, 2, 2, 9, 3, 3, 140}, uint16(5))
	f.Add(byte(0), []byte{255, 0, 255, 0, 12}, []byte{}, uint16(0))
	f.Add(byte(1), []byte{10, 20, 30, 40, 138, 148, 158, 50, 60, 70, 80, 90, 100}, []byte{138, 10, 148, 20}, uint16(300))
	f.Fuzz(func(t *testing.T, shardsRaw byte, first, second []byte, cut uint16) {
		shards := 1 + int(shardsRaw)%4
		if len(first)+len(second) > 2000 {
			return
		}
		seq := make([]uint64, shards)
		// write puts plan's records in segments from index seg on, each op
		// byte a key (low 3 bits), a delete (bit 7) or a set of a value
		// whose length is the byte; a byte of 0xff ends the segment. The
		// last segment loses cut%64 bytes from its end.
		write := func(dir string, seg int, plan []byte) {
			var b []byte
			flush := func() {
				if err := os.WriteFile(filepath.Join(dir, segName(seg)), b, 0o644); err != nil {
					t.Fatal(err)
				}
				b, seg = nil, seg+1
			}
			for i, op := range plan {
				if op == 0xff {
					flush()
					continue
				}
				k := int(op & 7)
				sh := k % shards
				seq[sh]++
				r := Record{Seq: seq[sh], Shard: uint16(sh), Op: OpSet, Flags: uint32(i),
					Key: []byte(fmt.Sprintf("key:%d", k)), Val: bytes.Repeat([]byte{op}, int(op&0x7f))}
				if op&0x80 != 0 {
					r.Op, r.Val = OpDelete, nil
				}
				b = logrec.AppendRecord(b, r)
			}
			b = b[:len(b)-min(len(b), int(cut)%64)]
			flush()
		}
		// compacted recovers a copy of dir, closes it, and returns the
		// copy, now a bare base, and what its recovery found.
		compacted := func(dir string) (string, liveState) {
			c := filepath.Join(t.TempDir(), "c")
			copyDir(t, dir, c)
			l, err := Open(c, shards, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := liveState{keys: map[string]Record{}}
			if _, err := l.Recover(st.fold); err != nil {
				t.Fatal(err)
			}
			st.last = make([]uint64, shards)
			for i := range st.last {
				st.last[i] = l.LastSeq(i)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return c, st
		}
		same := func(what, dir string, want liveState) {
			t.Helper()
			got, _, err := recoverState(t, dir, shards)
			if err != nil || !got.equal(want) {
				t.Fatalf("%s: recovered %v, %v; the history leaves %v", what, got, err, want)
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestBody(shards)), 0o644); err != nil {
			t.Fatal(err)
		}
		write(dir, 0, first)
		base1, want1 := compacted(dir)
		same("compacted", base1, want1)

		// The recovery stopped where the cut tail did: the second history
		// continues from the base's through-sequences, in segments above it.
		copy(seq, want1.last)
		m, err := readManifest(base1, shards)
		if err != nil {
			t.Fatal(err)
		}
		write(base1, m.seg, second)
		two, want2 := compacted(base1)
		same("base plus segments, compacted", two, want2)

		// A crash while the second compaction wrote its base: a stray base
		// torn mid-frame beside the MANIFEST that does not name it. (A
		// second history that replays nothing past the base compacts
		// nothing.)
		var newBase string
		for _, name := range dirNames(t, two) {
			if strings.HasPrefix(name, "b-") {
				newBase = name
			}
		}
		if newBase == "" || newBase == baseName(m.seg) {
			return
		}
		b, err := os.ReadFile(filepath.Join(two, newBase))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < logrec.FrameHeader {
			return
		}
		_, n, _ := logrec.DecodeRecord(b)
		for _, name := range []string{newBase, newBase + ".tmp"} {
			torn := filepath.Join(t.TempDir(), "torn")
			copyDir(t, base1, torn)
			if err := os.WriteFile(filepath.Join(torn, name), b[:len(b)-n/2], 0o644); err != nil {
				t.Fatal(err)
			}
			same("a torn uncommitted base "+name, torn, want2)
		}
	})
}

// TestCommittedBaseMustReadWhole: the base was fsynced before its MANIFEST
// committed it, so a base that does not read back whole, cut short or with
// a flipped byte, fails the recovery instead of replaying a prefix.
func TestCommittedBaseMustReadWhole(t *testing.T) {
	src := t.TempDir()
	l, _ := openLog(t, src, 2, Options{}, nil)
	appendMixed(t, l, make([]uint64, 2), 100, 20, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	base := dirNames(t, src)[1]
	for _, damage := range []func(b []byte) []byte{
		func(b []byte) []byte { return b[:len(b)-1] },
		func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
	} {
		dir := filepath.Join(t.TempDir(), "wal")
		copyDir(t, src, dir)
		b, err := os.ReadFile(filepath.Join(dir, base))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, base), damage(b), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, n, err := recoverState(t, dir, 2); err == nil {
			t.Fatalf("a damaged base replayed %d records and no error", n)
		}
	}
}
