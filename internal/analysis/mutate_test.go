//go:build mutate

package analysis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation table: seeded bug shapes, each applied to a copy of the real
// tree, and the checking layers that catch each one. A layer is one tmvet
// analyzer (a finding under its rule), `go test -race` on the tests the
// shape names, or a fixed test set standing for lockcheck or the chaos
// sweep (a failing test). Run it with
// `make mutate`; it fails if the unmutated copy is caught by anything or a
// shape by nothing, and prints the table recorded in DESIGN.md §7.

// An edit replaces old, which must occur exactly once in file, by new.
type edit struct{ file, old, new string }

// A shape is one seeded bug: its edits and the -race tests that may see it
// (a -run pattern, then packages).
type shape struct {
	name  string
	edits []edit
	race  []string
}

var mutationLayers = []struct {
	name string
	args []string // go test arguments
}{
	{"lockcheck", []string{"-run", "Is2PLClean|LockcheckClassifies", "./internal/x265sim", "./internal/kvstore"}},
	{"chaos", []string{"-run", "TestChaosSweep", "."}},
}

const (
	pbzip = "internal/pbzip/run.go"
	x265  = "internal/x265sim/encode.go"
	kv    = "internal/kvstore/kvstore.go"
)

var shapes = []shape{
	{"txsafe: console output in a retried section", []edit{{pbzip,
		"if tx.Load(p.done+memseg.Addr(seq)) == 0 {",
		"if tx.Load(p.done+memseg.Addr(seq)) == 0 {\nfmt.Println(\"waiting for block\", seq)"}},
		[]string{"-run", "TestRoundTrip", "./internal/pbzip"}},
	{"txsafe: immediate condvar wakeup before commit", []edit{{pbzip,
		"p.outCv.SignalTx(tx)", "p.outCv.Signal()"}},
		[]string{"-run", "TestRoundTrip", "./internal/pbzip"}},
	{"txsafe: NoQuiesce in a section that frees (Listing 1)", []edit{{x265,
		"x, ok := en.outQ.DequeueReady(tx)\n\t\t\tif !ok {\n\t\t\t\t//gotle:allow txsafe guarded: the retry path dequeued (and freed) nothing, and the rollback discards the attempt entirely\n\t\t\t\ttx.NoQuiesce()",
		"tx.NoQuiesce()\n\t\t\tx, ok := en.outQ.DequeueReady(tx)\n\t\t\tif !ok {"}},
		[]string{"-run", "^TestEncode[A-Z]", "./internal/x265sim"}},
	{"txpure: a count accumulated across retries", []edit{{kv,
		"count = int(tx.Load(sh.base + shCount))", "total += int(tx.Load(sh.base + shCount))"}},
		[]string{"-run", "TestConcurrentMixedWorkload|TestLen", "./internal/kvstore"}},
	{"txpure: a TM address published before commit", []edit{{x265,
		"node = en.outQ.Enqueue(tx, uint64(f))", "en.outNodes[f] = en.outQ.Enqueue(tx, uint64(f))"}, {x265,
		"en.outNodes[f] = node\n", "_ = node\n"}},
		[]string{"-run", "^TestEncode[A-Z]", "./internal/x265sim"}},
	{"a get's hit counted per attempt, not per get", []edit{{kv,
		"found = item != memseg.Nil\n", "found = item != memseg.Nil\n\t\tif found {\n\t\t\ts.gets.Add(th.ID(), 2*si+getHits, 1)\n\t\t}\n"}, {kv,
		"s.gets.Add(th.ID(), 2*si+getHits, 1)\n\tit.Value", "it.Value"}},
		[]string{"-run", "TestGetCountersExactUnderChaos", "./internal/kvstore"}},
	{"cvlast: condvar wait in mid-section", []edit{{pbzip,
		"if p.inQ.Len(tx) >= p.inQ.Cap() {\n\t\t\t\t\ttx.Retry()\n\t\t\t\t}\n\t\t\t\td := tx.Alloc(descSize)",
		"if p.inQ.Len(tx) >= p.inQ.Cap() {\n\t\t\t\t\tp.inNotF.Wait(cfg.WaitTimeout)\n\t\t\t\t}\n\t\t\t\td := tx.Alloc(descSize)"}},
		[]string{"-run", "TestRoundTrip|TestWorkerCounts", "./internal/pbzip"}},
	{"lockorder: Listing 3's produce under the queue lock, in Listing 4", []edit{{"internal/x265sim/non2pl.go",
		"node = d.outQ.Enqueue(tx, 0)\n\t\t\treturn nil\n\t\t}); err != nil {\n\t\t\treturn nil, err\n\t\t}\n\t\t// Produce with the queue lock released.\n\t\tif err := d.produceInline(th, want); err != nil {\n\t\t\treturn nil, err\n\t\t}",
		"node = d.outQ.Enqueue(tx, 0)\n\t\t\treturn d.produceInline(th, want)\n\t\t}); err != nil {\n\t\t\treturn nil, err\n\t\t}"}},
		[]string{"-run", "^TestListing", "./internal/x265sim"}},
	{"lockorder: a row's two sections wrapped in the task lock (2PL)", []edit{{x265,
		"rowCost := en.rowCosts[f][r]\n\terr := en.ctuMu.Do(", "rowCost := en.rowCosts[f][r]\n\treturn en.taskMu.Do(th, func(tm.Tx) error {\n\terr := en.ctuMu.Do("}, {x265,
		"tx.Store(en.totalCost, tx.Load(en.totalCost)+uint64(rowCost))\n\t\treturn nil\n\t})\n}", "tx.Store(en.totalCost, tx.Load(en.totalCost)+uint64(rowCost))\n\t\treturn nil\n\t})\n\t})\n}"}},
		[]string{"-run", "^TestEncode[A-Z]", "./internal/x265sim"}},
	{"lockorder: two nestings take ctuRows and cost in both orders", []edit{{x265,
		"en.frameCv.SignalTx(tx)\n\t\treturn nil\n\t})\n\tif err != nil {\n\t\treturn err\n\t}\n\treturn en.costMu.Do(th, func(tx tm.Tx) error {\n\t\ttx.NoQuiesce()\n\t\ttx.Store(en.totalCost, tx.Load(en.totalCost)+uint64(rowCost))\n\t\treturn nil\n\t})\n}",
		"en.frameCv.SignalTx(tx)\n\t\treturn en.costMu.Do(th, func(tx tm.Tx) error {\n\t\t\ttx.Store(en.totalCost, tx.Load(en.totalCost)+uint64(rowCost))\n\t\t\treturn nil\n\t\t})\n\t})\n\treturn err\n}"}, {x265,
		"en.frameCost[fIdx] = total\n", "en.costMu.Do(th, func(tm.Tx) error {\n\t\t\treturn en.ctuMu.Do(th, func(tx tm.Tx) error { _ = tx.Load(st); return nil })\n\t\t})\n\t\ten.frameCost[fIdx] = total\n"}},
		[]string{"-run", "^TestEncode[A-Z]", "./internal/x265sim"}},
	{"hotalloc: a get copies its value", []edit{{kv,
		"it.Value = out[base:]", "it.Value = append([]byte(nil), out[base:]...)"}},
		[]string{"-run", "TestZeroAllocHotPath", "./internal/server"}},
	{"falseshare: neighbouring HTM contexts' state words share a line", []edit{{"internal/htm/htm.go",
		"\ttx *Tx\n\t_  [24]byte // a line per context: the fields after state never change\n", "\ttx *Tx\n"}},
		[]string{"-run", "TestTxIsWholeCacheLines", "./internal/htm"}},
	{"protdom: a raw read racing a raw write the section orders", []edit{{pbzip,
		"if tx.Load(p.done+memseg.Addr(seq)) == 0 {", "if p.outData[seq] == nil || tx.Load(p.done+memseg.Addr(seq)) == 0 {"}},
		[]string{"-run", "TestRoundTrip|TestWorkerCounts", "./internal/pbzip"}},
	{"protdom: a plain store to an atomically accessed heap word", []edit{{"internal/memseg/memseg.go",
		"atomic.StoreUint64(&m.words[a], v)", "m.words[a] = v"}},
		[]string{"-run", "TestTwoWordInvariant|TestConcurrentIncrements", "./internal/stm", "./internal/htm"}},
	{"protdom: a mutex-guarded buffer appended after the unlock", []edit{{"internal/wal/wal.go",
		"if l.admitLocked(sh, r.Seq, 1) {\n\t\tl.buf = logrec.AppendRecord(l.buf, r)\n\t}\n\tl.mu.Unlock()",
		"ok := l.admitLocked(sh, r.Seq, 1)\n\tl.mu.Unlock()\n\tif ok {\n\t\tl.buf = logrec.AppendRecord(l.buf, r)\n\t}"}},
		[]string{"-run", "TestConcurrentAppendersAllDurable|TestReaderWhileAppending", "./internal/wal"}},
	{"htm: a read registers without re-checking the claim", []edit{{"internal/htm/htm.go",
		"t.stamps[line].Store(t.gen)\n\t\tif w := rec.writer.Load(); w != 0", "t.stamps[line].Store(t.gen)\n\t\tif w := rec.writer.Load(); false && w != 0"}},
		[]string{"-count=5", "-run", "TestReadRegistrationRacesWriteClaim", "./internal/htm"}},
	{"stm: an abort keeps its write-through stores", []edit{{"internal/stm/stm.go",
		"for i := len(t.undo) - 1; i >= 0; i-- {", "for i := len(t.undo) - 1; i >= 0 && false; i-- {"}},
		[]string{"-run", "TestConcurrentIncrements", "./internal/stm"}},
	{"stm: a load past its snapshot skips the extension", []edit{{"internal/stm/stm.go",
		"if v1 > t.rv {\n\t\t\tt.extend() // aborts on failure\n\t\t\tif orec.Load() != v1 {\n\t\t\t\treturn", "if false {\n\t\t\tt.extend() // aborts on failure\n\t\t\tif orec.Load() != v1 {\n\t\t\t\treturn"}, {"internal/stm/stm.go",
		"if v1 > t.rv {\n\t\t\tt.extend() // aborts on failure\n\t\t\tif orec.Load() != v1 {\n\t\t\t\tcontinue", "if false {\n\t\t\tt.extend() // aborts on failure\n\t\t\tif orec.Load() != v1 {\n\t\t\t\tcontinue"}},
		[]string{"-run", "TestTwoWordInvariant|TestLateLoadAfterExtend", "./internal/stm"}},
	{"epoch: QuiesceWith returns before its grace period", []edit{{"internal/epoch/epoch.go",
		"m.Snapshot(self, sc)\n\tif m.Elapsed(sc) {", "m.Snapshot(self, sc)\n\tif true || m.Elapsed(sc) {"}},
		[]string{"-run", "TestQuiesceNeverReturnsEarly|TestQuiesceWaitsForActive", "./internal/epoch"}},
	{"tm: the serial writer stops waiting for attempts in flight", []edit{{"internal/tm/serial.go",
		"\tl.epochs.QuiesceWith(nil, &l.sc)\n", ""}},
		[]string{"-run", "TestSerialLock", "./internal/tm"}},
	{"tm: NoQuiesce lets a freeing commit skip its grace period", []edit{{"internal/tm/atomic.go",
		"mustQuiesce := stmAttempt && len(th.frees) > 0", "mustQuiesce := false"}},
		[]string{"-run", "Reclaim|Captured|Quiesce", "./internal/tm"}},
}

func TestMutationTable(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tree := filepath.Join(tmp, "tree")
	copyTree(t, root, tree)
	tmvet := filepath.Join(tmp, "tmvet")
	if out, err := command(root, "go", "build", "-o", tmvet, "./cmd/tmvet"); err != nil {
		t.Fatalf("building tmvet: %v\n%s", err, out)
	}
	out, err := command(root, tmvet, "-list")
	if err != nil {
		t.Fatalf("tmvet -list: %v", err)
	}
	var analyzers []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		analyzers = append(analyzers, strings.Fields(line)[0])
	}
	columns := append(analyzers, "race")
	for _, l := range mutationLayers {
		columns = append(columns, l.name)
	}

	// caughtBy runs every layer over the tree as it stands.
	caughtBy := func(t *testing.T, race []string) map[string]bool {
		by := map[string]bool{}
		out, err := command(tree, tmvet, "-json", "./...")
		if err != nil && !strings.HasPrefix(out, "[") {
			t.Fatalf("tmvet: %v\n%s", err, out)
		}
		var recs []struct{ Rule string }
		if err := json.Unmarshal([]byte(out[:strings.LastIndex(out, "]")+1]), &recs); err != nil {
			t.Fatalf("tmvet -json: %v\n%s", err, out)
		}
		for _, r := range recs {
			by[r.Rule] = true
		}
		goTest := func(name string, args ...string) {
			out, err := command(tree, "go", append([]string{"test", "-count=1", "-timeout=90s"}, args...)...)
			if strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]") {
				t.Fatalf("%s layer does not build:\n%s", name, out)
			}
			by[name] = err != nil
		}
		if race != nil {
			goTest("race", append([]string{"-race"}, race...)...)
		}
		for _, l := range mutationLayers {
			goTest(l.name, l.args...)
		}
		return by
	}

	// The unmutated copy, without -race: the shapes' -race tests are make race's.
	if by := caughtBy(t, nil); len(join(columns, by)) > 0 {
		t.Fatalf("the unmutated tree is caught by %s", join(columns, by))
	}
	var table strings.Builder
	fmt.Fprintf(&table, "| shape | %s |\n|---|%s\n", strings.Join(columns, " | "), strings.Repeat("---|", len(columns)))
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			defer apply(t, tree, s.edits)()
			by := caughtBy(t, s.race)
			fmt.Fprintf(&table, "| %s |", s.name)
			for _, c := range columns {
				mark := ""
				if by[c] {
					mark = "x"
				}
				fmt.Fprintf(&table, " %s |", mark)
			}
			table.WriteString("\n")
			t.Logf("caught by: %s", join(columns, by))
			if len(join(columns, by)) == 0 {
				t.Errorf("no layer catches this shape")
			}
		})
	}
	fmt.Print(table.String())
}

// apply makes the edits in tree and returns the function that undoes them.
func apply(t *testing.T, tree string, edits []edit) func() {
	saved := map[string][]byte{}
	restore := func() {
		for name, src := range saved {
			if err := os.WriteFile(name, src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range edits {
		name := filepath.Join(tree, e.file)
		src, err := os.ReadFile(name)
		if err != nil {
			restore()
			t.Fatal(err)
		}
		if _, ok := saved[name]; !ok {
			saved[name] = src
		}
		if n := bytes.Count(src, []byte(e.old)); n != 1 {
			restore()
			t.Fatalf("%s: the edit's old text occurs %d times, want 1:\n%s", e.file, n, e.old)
		}
		src = bytes.Replace(src, []byte(e.old), []byte(e.new), 1)
		if err := os.WriteFile(name, src, 0o644); err != nil {
			restore()
			t.Fatal(err)
		}
	}
	return restore
}

// copyTree copies the module's files, without dot directories and the
// benchmark's scratch, into dst.
func copyTree(t *testing.T, src, dst string) {
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench-out" || rel == "benchmark") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// command runs name with args in dir and returns its combined output.
func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// join lists the columns set in by.
func join(columns []string, by map[string]bool) string {
	var names []string
	for _, c := range columns {
		if by[c] {
			names = append(names, c)
		}
	}
	return strings.Join(names, ", ")
}
