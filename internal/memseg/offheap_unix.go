//go:build unix && !race

package memseg

import (
	"syscall"
	"unsafe"
)

// Map returns n zeroed Ts from an anonymous private mapping outside the Go
// heap: the collector neither counts, scans nor zeroes it, and untouched
// pages stay out of RSS. T must hold no Go pointers. Unmap releases it.
func Map[T any](n int) []T {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(*new(T))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("memseg: mmap: " + err.Error())
	}
	mapped.Add(int64(len(b)))
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// Unmap releases what Map returned. Nothing may touch it afterwards.
func Unmap[T any](s []T) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
	if err := syscall.Munmap(b); err != nil {
		panic("memseg: munmap: " + err.Error())
	}
	mapped.Add(-int64(len(b)))
}
