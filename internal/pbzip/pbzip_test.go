package pbzip

import (
	"bytes"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/tle"
	"gotle/internal/tmlog"
)

func newRuntime(p tle.Policy) *tle.Runtime {
	return tle.New(p, tle.Config{
		MemWords: 1 << 20,
		HTM:      htm.Config{EventAbortPerMillion: 2},
	})
}

func TestRoundTripAllPolicies(t *testing.T) {
	input := SyntheticFile(300_000, 1)
	var reference []byte
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRuntime(p)
			c, err := Compress(r, input, Config{Workers: 4, BlockSize: 50_000})
			if err != nil {
				t.Fatal(err)
			}
			if reference == nil {
				reference = c.Output
			} else if !bytes.Equal(c.Output, reference) {
				// The compressed stream must be byte-identical across
				// policies: elision must not change program output.
				t.Fatal("compressed output differs across policies")
			}
			d, err := Decompress(r, c.Output, Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Output, input) {
				t.Fatal("decompressed output differs from input")
			}
			if c.Blocks != 6 {
				t.Fatalf("Blocks = %d, want 6", c.Blocks)
			}
		})
	}
}

func TestWorkerCounts(t *testing.T) {
	input := SyntheticFile(120_000, 2)
	r := newRuntime(tle.PolicySTMCondVar)
	var want []byte
	for _, workers := range []int{1, 2, 3, 8} {
		c, err := Compress(r, input, Config{Workers: workers, BlockSize: 30_000})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = c.Output
		} else if !bytes.Equal(c.Output, want) {
			t.Fatalf("workers=%d changed the output", workers)
		}
		d, err := Decompress(r, c.Output, Config{Workers: workers})
		if err != nil || !bytes.Equal(d.Output, input) {
			t.Fatalf("workers=%d: decompress mismatch (%v)", workers, err)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	r := newRuntime(tle.PolicyPthread)
	c, err := Compress(r, nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompress(r, c.Output, Config{Workers: 2})
	if err != nil || len(d.Output) != 0 {
		t.Fatalf("empty round trip: %v, %d bytes", err, len(d.Output))
	}
}

func TestSingleBlock(t *testing.T) {
	input := SyntheticFile(10_000, 3)
	r := newRuntime(tle.PolicyHTMCondVar)
	c, err := Compress(r, input, Config{Workers: 4, BlockSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if c.Blocks != 1 {
		t.Fatalf("Blocks = %d", c.Blocks)
	}
	d, err := Decompress(r, c.Output, Config{Workers: 4})
	if err != nil || !bytes.Equal(d.Output, input) {
		t.Fatalf("single block: %v", err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	r := newRuntime(tle.PolicyPthread)
	if _, err := Decompress(r, []byte{0xFF, 0xFF, 0xFF}, Config{Workers: 2}); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestDecompressCorruptBlockFailsCleanly(t *testing.T) {
	input := SyntheticFile(60_000, 4)
	r := newRuntime(tle.PolicySTMCondVar)
	c, err := Compress(r, input, Config{Workers: 2, BlockSize: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(c.Output))
	copy(bad, c.Output)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Decompress(r, bad, Config{Workers: 2}); err == nil {
		t.Fatal("corrupt stream decompressed without error")
	}
}

// The paper reports 950–1100 transactions per PBZip2 run, tiny abort rates
// under STM, and that compression dominates. Sanity-check our transaction
// accounting: commits scale with blocks, not with file size.
func TestTransactionCountsScaleWithBlocks(t *testing.T) {
	input := SyntheticFile(200_000, 5)
	r := newRuntime(tle.PolicySTMCondVar)
	before := r.Engine().Snapshot()
	c, err := Compress(r, input, Config{Workers: 4, BlockSize: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Engine().Snapshot().Sub(before)
	// Expect at least 3 committed transactions per block (enqueue, dequeue,
	// publish) plus writer checks and sentinels — and no runaway retries.
	minTx := uint64(3 * c.Blocks)
	if s.Commits < minTx {
		t.Fatalf("commits = %d, want >= %d", s.Commits, minTx)
	}
	if s.Commits > minTx*100 {
		t.Fatalf("commits = %d — runaway retry loop?", s.Commits)
	}
}

func TestNoQuiesceDisciplineObserved(t *testing.T) {
	input := SyntheticFile(100_000, 6)
	r := newRuntime(tle.PolicySTMCondVarNoQ)
	before := r.Engine().Snapshot()
	if _, err := Compress(r, input, Config{Workers: 3, BlockSize: 25_000}); err != nil {
		t.Fatal(err)
	}
	s := r.Engine().Snapshot().Sub(before)
	if s.NoQuiesce == 0 {
		t.Fatal("NoQuiesce never honored under the noq policy")
	}
	// Dequeues that privatize descriptors must still quiesce (the free
	// forces it), so quiescence cannot be zero either.
	if s.Quiesces == 0 {
		t.Fatal("privatizing dequeues never quiesced")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	blocks := [][]byte{{1, 2, 3}, {}, {0xFF}, []byte("hello")}
	got, err := unframe(frameOutput(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks", len(got))
	}
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i]) {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

func TestUnframeRejectsTruncation(t *testing.T) {
	full := frameOutput([][]byte{{1, 2, 3, 4, 5}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := unframe(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := unframe(append(full, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// Diagnostic logging inside critical sections (Section VI.c): records are
// deferred to commit — exactly one per committed critical section that
// logs, and logging never forces serial execution.
func TestLoggingInCriticalSections(t *testing.T) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVar, tle.PolicyHTMCondVar} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			input := SyntheticFile(80_000, 9)
			// A retry budget no conflict streak exhausts: the only way left
			// to a serial run is an irrevocable action inside a section,
			// which is what logging must not be. (Under the default budget,
			// 2 for HTM, contention alone serialized 5-10 % of runs.)
			r := tle.New(p, tle.Config{MemWords: 1 << 20, MaxRetries: 1 << 20,
				HTM: htm.Config{EventAbortPerMillion: 2}})
			l := tmlog.New(nil)
			before := r.Engine().Snapshot()
			c, err := Compress(r, input, Config{Workers: 3, BlockSize: 20_000, Log: l})
			if err != nil {
				t.Fatal(err)
			}
			want := 2 * c.Blocks // one enqueue + one done per block
			if l.Len() != want {
				t.Fatalf("log records = %d, want %d", l.Len(), want)
			}
			if s := r.Engine().Snapshot().Sub(before); s.SerialRuns != 0 {
				t.Fatalf("logging forced %d serial runs", s.SerialRuns)
			}
		})
	}
}

func TestSyntheticFileDeterministic(t *testing.T) {
	a := SyntheticFile(10_000, 7)
	b := SyntheticFile(10_000, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("SyntheticFile not deterministic")
	}
	c := SyntheticFile(10_000, 8)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical files")
	}
	if len(a) != 10_000 {
		t.Fatalf("size = %d", len(a))
	}
}
