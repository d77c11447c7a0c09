//go:build !unix || race

package memseg

// Without mmap, or under the race detector, which tracks only Go memory and
// would drop the heap's happens-before edges, Map's slices are Go heap.
func Map[T any](n int) []T { return make([]T, n) }
func Unmap[T any](s []T)   {}
