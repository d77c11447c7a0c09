// Package logrec is the shared record frame codec: the CRC-32C + length-
// prefixed encoding of one logical kvstore mutation. Two consumers frame
// the SAME records — internal/wal writes them to disk, internal/repl
// streams them to follower replicas over TCP — so the codec lives in one
// package rather than two near-identical copies that would drift. A WAL
// segment and a replication stream carry byte-identical frames; anything
// that can recover a log can, in principle, be caught up from a stream
// and vice versa. Stream is the sequencer in front of both: it frames each
// committed record once and hands every sink the same bytes in order.
//
// Frame layout:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 op | u16 shard | u64 seq | u32 flags | u32 keyLen | key | val
//
// all little-endian. valLen is implied by payloadLen.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Op is the redo operation kind.
type Op uint8

const (
	// OpSet stores Key=Val with Flags (covers set/add/replace/cas/incr).
	OpSet Op = 1
	// OpDelete removes Key.
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one logical mutation, ordered by Seq within its shard.
type Record struct {
	// Seq is the shard's commit sequence number (1-based, contiguous:
	// drawn inside the mutating transaction, so it matches the shard's
	// serialization order exactly).
	Seq uint64
	// Shard routes the record back to its shard's sequence space on
	// recovery or replicated apply — all shards interleave in one shared
	// file series (and one TCP stream). Stream.Publish, wal.Log.Append
	// and repl.Source.Publish stamp it; callers never set it.
	Shard uint16
	// Op selects set or delete.
	Op Op
	// Flags is the client-opaque memcached flags word (sets only).
	Flags uint32
	// Key and Val are the entry bytes (Val empty for deletes).
	Key []byte
	Val []byte
}

const (
	// FrameHeader is the fixed prefix: payload length + CRC.
	FrameHeader = 8
	// PayloadMin is the smallest legal payload: op + shard + seq + flags +
	// keyLen with an empty key and value.
	PayloadMin = 1 + 2 + 8 + 4 + 4
	// MaxPayload bounds one record's payload; length prefixes beyond it
	// are treated as corruption rather than allocated.
	MaxPayload = 1 << 20
)

// castagnoli is the CRC-32C table: amd64 and arm64 compute it in hardware.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is a frame's checksum of its payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

var (
	// ErrTorn marks an incomplete frame at the end of the input: the
	// process died mid-append (disk) or the stream was cut mid-frame
	// (wire). More bytes could complete it.
	ErrTorn = errors.New("logrec: torn record (incomplete frame)")
	// ErrCorrupt marks a complete-looking frame whose CRC or structure is
	// invalid. No further bytes can repair it.
	ErrCorrupt = errors.New("logrec: corrupt record (bad CRC or structure)")
)

// AppendRecord appends r's framed encoding to buf and returns the result.
func AppendRecord(buf []byte, r Record) []byte {
	payloadLen := PayloadMin + len(r.Key) + len(r.Val)
	start := len(buf)
	// Every byte of the frame is written below. slices.Grow, unlike
	// append(buf, make(...)...), allocates nothing under -race either.
	buf = slices.Grow(buf, FrameHeader+payloadLen)[:start+FrameHeader+payloadLen]
	p := buf[start:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(payloadLen))
	pay := p[FrameHeader:]
	pay[0] = byte(r.Op)
	binary.LittleEndian.PutUint16(pay[1:3], r.Shard)
	binary.LittleEndian.PutUint64(pay[3:11], r.Seq)
	binary.LittleEndian.PutUint32(pay[11:15], r.Flags)
	binary.LittleEndian.PutUint32(pay[15:19], uint32(len(r.Key)))
	copy(pay[19:], r.Key)
	copy(pay[19+len(r.Key):], r.Val)
	binary.LittleEndian.PutUint32(p[4:8], Checksum(pay))
	return buf
}

// DecodeRecord decodes the first framed record in b. It returns the record
// and the number of bytes consumed. ErrTorn means b ends mid-frame (the
// truncated tail of a crashed append, or a cut stream); ErrCorrupt means
// the frame is complete but its CRC or structure is invalid. Key and Val
// alias b.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < FrameHeader {
		return Record{}, 0, ErrTorn
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if payloadLen < PayloadMin || payloadLen > MaxPayload {
		// A structurally impossible length is corruption, not a tear: no
		// amount of further bytes could complete it into a valid record.
		return Record{}, 0, ErrCorrupt
	}
	if len(b) < FrameHeader+payloadLen {
		return Record{}, 0, ErrTorn
	}
	pay := b[FrameHeader : FrameHeader+payloadLen]
	if Checksum(pay) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{
		Op:    Op(pay[0]),
		Shard: binary.LittleEndian.Uint16(pay[1:3]),
		Seq:   binary.LittleEndian.Uint64(pay[3:11]),
		Flags: binary.LittleEndian.Uint32(pay[11:15]),
	}
	keyLen := int(binary.LittleEndian.Uint32(pay[15:19]))
	if keyLen > payloadLen-PayloadMin {
		return Record{}, 0, ErrCorrupt
	}
	if r.Op != OpSet && r.Op != OpDelete {
		return Record{}, 0, ErrCorrupt
	}
	r.Key = pay[19 : 19+keyLen]
	r.Val = pay[19+keyLen:]
	return r, FrameHeader + payloadLen, nil
}
