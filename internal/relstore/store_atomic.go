//go:build !amd64 || race

package relstore

import "sync/atomic"

// Store64 stores v to *p. Off amd64, or under the race detector, that is
// the sequentially consistent atomic store.
func Store64(p *atomic.Uint64, v uint64) { p.Store(v) }

// Store32 stores v to *p. Off amd64, or under the race detector, that is
// the sequentially consistent atomic store.
func Store32(p *atomic.Uint32, v uint32) { p.Store(v) }
