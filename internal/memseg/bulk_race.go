//go:build race

package memseg

import "sync/atomic"

// bulkSet under the race detector stores every word atomically: tests that
// deliberately race a zombie reader against a free (the bug class poisoning
// makes visible) must see the race attributed to the zombie's access, not
// to the allocator's fill loop.
func bulkSet(words []uint64, v uint64) {
	for i := range words {
		atomic.StoreUint64(&words[i], v)
	}
}

// bulkCopy under the race detector stores every word atomically, for the
// same reason.
func bulkCopy(words, src []uint64) {
	for i, v := range src {
		atomic.StoreUint64(&words[i], v)
	}
}
