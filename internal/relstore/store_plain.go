//go:build amd64 && !race

package relstore

import (
	"sync/atomic"
	"unsafe"
)

// Store64 stores v to *p with release order: a plain MOV on amd64.
func Store64(p *atomic.Uint64, v uint64) { *(*uint64)(unsafe.Pointer(p)) = v }

// Store32 stores v to *p with release order: a plain MOV on amd64.
func Store32(p *atomic.Uint32, v uint32) { *(*uint32)(unsafe.Pointer(p)) = v }
