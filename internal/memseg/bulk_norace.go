//go:build !race

package memseg

// bulkSet fills words with v using plain stores. The blocks it touches are
// unreachable in correct executions — fresh off a free stack pop, or freed
// past their grace period — so there is no well-formed concurrent accessor
// to order against, and plain stores let the compiler emit a vectorized
// fill (memclr for zero) instead of one locked store per word. The race
// build substitutes an atomic loop so that the deliberate zombie-reader
// races the poison mechanism exists to expose are reported against the
// zombie, not against the allocator.
func bulkSet(words []uint64, v uint64) {
	if v == 0 {
		clear(words)
		return
	}
	for i := range words {
		words[i] = v
	}
}

// bulkCopy copies src over words with plain stores (one memmove), under the
// same argument: StoreRange's contract makes the destination unreachable to
// every thread but the caller.
func bulkCopy(words, src []uint64) { copy(words, src) }
