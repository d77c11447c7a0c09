package stm

import (
	"fmt"
	"testing"

	"gotle/internal/memseg"
	"gotle/internal/tmclock"
)

// TestOrecTableFitsHeap: the orec table has no more slots than the heap has
// stripes (rounded up to a power of two, at least NewTable's 16), capped by
// OrecSizeLog2, and every address of the heap keeps the slot the full
// 1<<OrecSizeLog2 table gives it, so sizing the table to the heap adds and
// removes no false conflict.
func TestOrecTableFitsHeap(t *testing.T) {
	for _, words := range []int{1000, 1 << 18, 3 << 17, 1 << 20, 1 << 22, 1 << 23} {
		mem := memseg.New(words)
		for _, shift := range []int{0, 3} {
			for _, orecLog2 := range []int{0, 12} {
				t.Run(fmt.Sprintf("words=%d/shift=%d/cap=%d", words, shift, orecLog2), func(t *testing.T) {
					s := New(mem, Config{OrecSizeLog2: orecLog2, StripeShift: shift})
					capLog2 := orecLog2
					if capLog2 == 0 {
						capLog2 = 20
					}
					stripes := (mem.Size()-1)>>shift + 1
					pow := 1
					for pow < stripes {
						pow <<= 1
					}
					if got, want := s.orecs.Len(), max(16, min(1<<capLog2, pow)); got != want {
						t.Fatalf("%d orecs for %d stripes, want %d", got, stripes, want)
					}
					full := tmclock.NewTable(capLog2, shift)
					check := func(a memseg.Addr) {
						if got, want := s.orecs.Index(a), full.Index(a); got != want {
							t.Fatalf("address %d maps to orec %d, want %d as under the full table", a, got, want)
						}
					}
					step := func(a int) int {
						if a < 1<<20 {
							return a + 1
						}
						return a + 61 // past 1<<20 words, every 61st address
					}
					for a := 0; a < mem.Size(); a = step(a) {
						check(memseg.Addr(a))
					}
					check(memseg.Addr(mem.Size() - 1))
				})
			}
		}
	}
}
