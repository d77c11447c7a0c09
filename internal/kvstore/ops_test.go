package kvstore

import (
	"fmt"
	"testing"

	"gotle/internal/tle"
)

// A verbStep is one Mutate call, the result it must return and the key's
// value and flags after it (value "" means the key is absent). When cas is
// set, the op's CAS token is read from it as the step runs; when saveCas is
// set, the key's token after the step is kept there.
type verbStep struct {
	op      BatchOp
	cas     *uint64
	want    BatchResult
	value   string
	flags   uint32
	saveCas *uint64
}

// runVerbSteps runs steps in order on a fresh store under every elision
// policy: the memcached verbs must behave identically under each.
func runVerbSteps(t *testing.T, steps []verbStep) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{})
			th := r.NewThread()
			for i, st := range steps {
				op := st.op
				if st.cas != nil {
					op.Cas = *st.cas
				}
				if res, err := s.Mutate(th, op); err != nil || res != st.want {
					t.Fatalf("step %d (verb %d, key %q): %+v, %v; want %+v", i, op.Verb, op.Key, res, err, st.want)
				}
				it, ok, err := s.GetItem(th, op.Key)
				if err != nil || ok != (st.value != "") || string(it.Value) != st.value || it.Flags != st.flags || ok && it.CAS == 0 {
					t.Fatalf("step %d: %q reads %+v, %v, %v; want %q, flags %d", i, op.Key, it, ok, err, st.value, st.flags)
				}
				if st.saveCas != nil {
					*st.saveCas = it.CAS
				}
			}
		})
	}
}

// add stores on absent and refuses on present; replace refuses on absent
// and stores on present, advancing the CAS token; cas answers EXISTS to a
// stale token, stores on the current one, and answers NOT_FOUND on a
// missing key.
func TestConditionalStoreVerbs(t *testing.T) {
	var addCas, replaceCas uint64
	one := uint64(1)
	a, b, gone := []byte("a"), []byte("b"), []byte("gone")
	runVerbSteps(t, []verbStep{
		{op: BatchOp{Verb: BatchAdd, Key: a, Val: []byte("1"), Flags: 7}, want: BatchResult{Store: Stored}, value: "1", flags: 7, saveCas: &addCas},
		{op: BatchOp{Verb: BatchAdd, Key: a, Val: []byte("2")}, want: BatchResult{Store: NotStored}, value: "1", flags: 7},
		{op: BatchOp{Verb: BatchReplace, Key: b, Val: []byte("x")}, want: BatchResult{Store: NotStored}},
		{op: BatchOp{Verb: BatchReplace, Key: a, Val: []byte("3"), Flags: 9}, want: BatchResult{Store: Stored}, value: "3", flags: 9, saveCas: &replaceCas},
		{op: BatchOp{Verb: BatchCAS, Key: a, Val: []byte("z")}, cas: &addCas, want: BatchResult{Store: CASExists}, value: "3", flags: 9},
		{op: BatchOp{Verb: BatchCAS, Key: a, Val: []byte("4")}, cas: &replaceCas, want: BatchResult{Store: Stored}, value: "4"},
		{op: BatchOp{Verb: BatchCAS, Key: gone, Val: []byte("z")}, cas: &one, want: BatchResult{Store: CASNotFound}},
	})
}

// incr and decr answer NOT_FOUND on a missing key and NaN on a value that
// is not a decimal counter; decr floors at zero, and the flags survive the
// path that reallocates a counter that grows a digit.
func TestIncrDecr(t *testing.T) {
	n, str, f := []byte("n"), []byte("s"), []byte("f")
	runVerbSteps(t, []verbStep{
		{op: BatchOp{Verb: BatchIncr, Key: n, Delta: 1}, want: BatchResult{Incr: IncrNotFound}},
		{op: BatchOp{Verb: BatchSet, Key: n, Val: []byte("9")}, value: "9"},
		// 9 + 1 = 10: digit count grows, forcing the realloc path.
		{op: BatchOp{Verb: BatchIncr, Key: n, Delta: 1}, want: BatchResult{NewVal: 10}, value: "10"},
		// 10 + 5 = 15: same digit count, in-place path.
		{op: BatchOp{Verb: BatchIncr, Key: n, Delta: 5}, want: BatchResult{NewVal: 15}, value: "15"},
		// decr floors at zero.
		{op: BatchOp{Verb: BatchDecr, Key: n, Delta: 100}, want: BatchResult{NewVal: 0}, value: "0"},
		{op: BatchOp{Verb: BatchSet, Key: str, Val: []byte("abc")}, value: "abc"},
		{op: BatchOp{Verb: BatchIncr, Key: str, Delta: 1}, want: BatchResult{Incr: IncrNaN}, value: "abc"},
		{op: BatchOp{Verb: BatchSet, Key: f, Val: []byte("99"), Flags: 42}, value: "99", flags: 42},
		{op: BatchOp{Verb: BatchIncr, Key: f, Delta: 1}, want: BatchResult{NewVal: 100}, value: "100", flags: 42},
	})
}

// CAS tokens must be unique and monotone per key, including across
// delete/re-add, so a client holding a token from a previous incarnation
// can never accidentally win.
func TestCASTokenMonotone(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{})
	th := r.NewThread()
	key := []byte("k")
	var last uint64
	for i := 0; i < 10; i++ {
		if err := s.Set(th, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		it, ok, err := s.GetItem(th, key)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if it.CAS <= last {
			t.Fatalf("CAS token not monotone: %d after %d", it.CAS, last)
		}
		last = it.CAS
		if i == 5 {
			s.Delete(th, key)
			s.Set(th, key, []byte("back"))
			it, _, _ := s.GetItem(th, key)
			if it.CAS <= last {
				t.Fatalf("CAS reused across delete: %d after %d", it.CAS, last)
			}
			last = it.CAS
		}
	}
}

func TestShardMutexAccessors(t *testing.T) {
	r := tle.New(tle.PolicySTMCondVar, tle.Config{MemWords: 1 << 20, Observe: true})
	s := New(r, Config{Shards: 4})
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d", s.ShardCount())
	}
	ms := s.ShardMutexes()
	if len(ms) != 4 {
		t.Fatalf("ShardMutexes = %d", len(ms))
	}
	for i, m := range ms {
		if m != s.ShardMutex(i) {
			t.Fatalf("mutex %d mismatch", i)
		}
		if m.Observer() == nil {
			t.Fatalf("shard %d has no observer under Observe config", i)
		}
	}
	th := r.NewThread()
	key := []byte("hello")
	idx := s.ShardFor(key)
	if err := s.Set(th, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	st, err := s.ShardStats(th, idx)
	if err != nil || st.Sets != 1 {
		t.Fatalf("ShardStats[%d] = %+v,%v", idx, st, err)
	}
}
