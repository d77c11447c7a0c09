package stats

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// applyEvent records event k (one of every Stripe method, every abort cause
// included) on t and, serially, on the model snapshot want.
func applyEvent(t *Stripe, want *Snapshot, k int, arg uint64) {
	switch k {
	case 0:
		t.AbandonedStart()
		want.Starts++
	case 1:
		t.Commit(arg%2 == 0)
		want.Starts++
		want.Commits++
		if arg%2 == 0 {
			want.ReadOnly++
		}
	case 2:
		t.SerialRun()
		want.SerialRuns++
	case 3:
		t.Quiesce(time.Duration(arg))
		want.Quiesces++
		want.QuiesceTime += time.Duration(arg)
	case 4:
		t.NoQuiesce()
		want.NoQuiesce++
	case 5:
		t.SharedGrace(arg%2 == 0)
		want.SharedGrace++
		if arg%2 == 0 {
			want.ScansAvoided++
		}
	case 6:
		t.Parked(arg)
		want.Parked += arg
	case 7:
		t.ReadsDeduped(arg)
		want.ReadsDeduped += arg
	case 8:
		t.Reclaimed(arg)
		want.Reclaimed += arg
	default:
		c := AbortCause(k - 9)
		t.Abort(c)
		want.Starts++
		want.Aborts[c]++
	}
}

const eventKinds = 9 + NumCauses

// 96 threads on 64 owned stripes: ids 64..96 share the overflow stripe, 33
// concurrent writers on one stripe. The snapshot must equal the one the same
// event streams produce serially.
func TestCountersExactWithSharedStripes(t *testing.T) {
	const threads, per = 96, 2000
	c := NewCounters()
	wants := make([]Snapshot, threads)
	var wg sync.WaitGroup
	for id := 1; id <= threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			st := c.Stripe(uint64(id))
			for i := 0; i < per; i++ {
				applyEvent(st, &wants[id-1], rng.Intn(eventKinds), uint64(rng.Intn(5)))
			}
		}(id)
	}
	wg.Wait()

	var want Snapshot
	for _, w := range wants {
		want = add(want, w)
	}
	got := c.Snapshot()
	if got != want {
		t.Fatalf("snapshot\n got %+v\nwant %+v", got, want)
	}
	abandoned := c.s.Sum(int(evAbandoned))
	if abandoned == 0 || got.Starts != got.Commits+got.TotalAborts()+abandoned {
		t.Fatalf("Starts = %d, want commits %d + aborts %d + abandoned %d",
			got.Starts, got.Commits, got.TotalAborts(), abandoned)
	}

	// Sub is component-wise: every field of got.Sub(half) + half is got's.
	half := wants[0]
	if back := add(got.Sub(half), half); back != got {
		t.Fatalf("Sub not component-wise:\n got.Sub(h)+h %+v\n got          %+v", back, got)
	}
	if d := got.Sub(got); d != (Snapshot{}) {
		t.Fatalf("s.Sub(s) = %+v, want zero", d)
	}

	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("snapshot after Reset = %+v, want zero", s)
	}
}

// add is the reference component-wise sum, by reflection so that a field
// added to Snapshot and forgotten in Sub or Counters.Snapshot shows up.
func add(a, b Snapshot) Snapshot {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + vb.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + vb.Field(i).Int())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(f.Index(j).Uint() + vb.Field(i).Index(j).Uint())
			}
		default:
			panic("Snapshot field of unexpected kind " + f.Kind().String())
		}
	}
	return a
}

// Two stripes never share a 64-byte line, whatever n is; and the Counters'
// event set fits the stripe NewCounters asks for.
func TestStripedLayout(t *testing.T) {
	if unsafe.Sizeof(line{}) != 64 {
		t.Fatalf("line is %d bytes, want 64", unsafe.Sizeof(line{}))
	}
	for _, n := range []int{2, 8, 20} {
		s := NewStriped(n)
		if uintptr(unsafe.Pointer(&s.lines[0]))%64 != 0 {
			t.Fatalf("n=%d: stripe 0 is not line-aligned", n)
		}
		if want := (n + 7) / 8; s.per != want || len(s.lines) != Stripes*want {
			t.Fatalf("n=%d: %d lines per stripe, %d lines; want %d, %d", n, s.per, len(s.lines), want, Stripes*want)
		}
		lineOf := func(stripe uint64, i int) uintptr {
			s.Add(stripe, i, 1) // must not panic: i < n is in range
			return uintptr(unsafe.Pointer(&s.lines[int(stripe%Stripes)*s.per+i/lineWords][i%lineWords])) / 64
		}
		owner := map[uintptr]uint64{}
		for st := uint64(0); st < Stripes; st++ {
			for i := 0; i < n; i++ {
				l := lineOf(st, i)
				if o, seen := owner[l]; seen && o != st {
					t.Fatalf("n=%d: stripes %d and %d share line %#x", n, o, st, l*64)
				}
				owner[l] = st
			}
		}
		for i := 0; i < n; i++ {
			if got := s.Sum(i); got != Stripes {
				t.Fatalf("n=%d: Sum(%d) = %d after one Add per stripe, want %d", n, i, got, Stripes)
			}
			for st := 0; st < Stripes; st++ { // each Add landed on its own stripe
				if got := s.lines[st*s.per+i/lineWords][i%lineWords].Load(); got != 1 {
					t.Fatalf("n=%d: stripe %d counter %d = %d, want 1", n, st, i, got)
				}
			}
		}
		// A thread id past the stripe count wraps onto an existing stripe.
		s.Add(Stripes+3, 0, 5)
		if got := s.Sum(0); got != Stripes+5 {
			t.Fatalf("n=%d: Sum(0) = %d after a wrapped Add, want %d", n, got, Stripes+5)
		}
	}
	c := NewCounters()
	if c.s.per*lineWords < int(numEvents) {
		t.Fatalf("Counters stripe holds %d words, events need %d", c.s.per*lineWords, numEvents)
	}
	// A thread's handle records on the stripe its id selects; ids past the
	// stripe count all record on the overflow stripe after the last.
	c.Stripe(5).Commit(false)
	c.Stripe(Stripes + 5).Commit(false)
	c.Stripe(Stripes).Commit(false)
	for st, want := range map[int]uint64{5: 1, Stripes: 2} {
		if got := c.s.lines[st*c.s.per+int(evWriting)/lineWords][int(evWriting)%lineWords].Load(); got != want {
			t.Fatalf("stripe %d holds %d writing commits, want %d", st, got, want)
		}
	}
	if got := c.Snapshot().Commits; got != 3 {
		t.Fatalf("Snapshot().Commits = %d, want 3: the overflow stripe is summed too", got)
	}
}

// Thread id Stripes+1 runs beside id 1, whose stripe it selected when the
// stripe was id % Stripes: an owned stripe's add is a plain load and store,
// so two live writers on one stripe would lose counts. Both must be exact.
func TestOverflowIDBesideItsAlias(t *testing.T) {
	const per = 100000
	c := NewCounters()
	one, past := c.Stripe(1), c.Stripe(Stripes+1)
	if one == past {
		t.Fatal("ids 1 and Stripes+1 share a stripe")
	}
	var wg sync.WaitGroup
	for _, st := range []*Stripe{one, past} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Commit(false)
			}
		}()
	}
	wg.Wait()
	for _, st := range []*Stripe{one, past} {
		if got := st.lines[evWriting/lineWords][evWriting%lineWords].Load(); got != per {
			t.Fatalf("stripe counts %d commits, want %d", got, per)
		}
	}
	if got := c.Snapshot().Commits; got != 2*per {
		t.Fatalf("Snapshot().Commits = %d, want %d", got, 2*per)
	}
}
