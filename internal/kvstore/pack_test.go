package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"gotle/internal/tle"
	"gotle/internal/tm"
)

// Property: byte packing into heap words round-trips for any payload.
func TestPackUnpackQuick(t *testing.T) {
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20})
	th := r.NewThread()
	m := r.NewMutex("pack")
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		ok := true
		err := m.Do(th, func(tx tm.Tx) error {
			words := (len(data) + 7) / 8
			if words == 0 {
				words = 1
			}
			a := tx.Alloc(words)
			packBytes(tx, a, data)
			got := unpackBytes(tx, a, len(data))
			ok = bytes.Equal(got, data)
			if len(data) <= MaxKeyLen {
				// evict re-derives a victim's bucket from its packed key.
				ok = ok && packedKeyHash(tx, a, len(data)) == fnv1a(data)
			}
			tx.Free(a)
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: keys differing in any byte never match.
func TestKeyMatchesQuick(t *testing.T) {
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20})
	th := r.NewThread()
	m := r.NewMutex("keys")
	f := func(key []byte, flipAt uint16) bool {
		if len(key) == 0 || len(key) > MaxKeyLen {
			return true
		}
		result := true
		m.Do(th, func(tx tm.Tx) error {
			item := tx.Alloc(wordsFor(len(key), 0))
			tx.Store(item+itMeta, uint64(len(key))<<32)
			packBytes(tx, item+itData, key)
			if !keyMatches(tx, item, key) {
				result = false
			}
			// A flipped key must not match.
			other := make([]byte, len(key))
			copy(other, key)
			other[int(flipAt)%len(other)] ^= 0x01
			if keyMatches(tx, item, other) {
				result = false
			}
			// A different length must not match.
			if keyMatches(tx, item, append(other, 'x')) {
				result = false
			}
			tx.Free(item)
			return nil
		})
		return result
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFNV1ADistinguishes(t *testing.T) {
	if fnv1a([]byte("a")) == fnv1a([]byte("b")) {
		t.Fatal("trivial hash collision")
	}
	if fnv1a(nil) != fnv1a([]byte{}) {
		t.Fatal("nil and empty differ")
	}
}
