// Package repl streams the per-shard commit-sequenced record stream — the
// same logical records internal/wal frames to disk — to follower replicas
// over TCP. The primary side (Source) reads the frames back from the WAL,
// which holds them in per-shard sequence order, and fans them out to
// subscribed followers with per-follower cursors; the follower side (Follower)
// applies the stream through the kvstore front door in sequence order, so
// replica reads are always some prefix of the primary's per-shard
// serialization order.
//
// Wire protocol, in connection order:
//
//  1. Handshake (text): the follower sends
//     "REPL v2 <shards> <cursor0> <cursor1> ...\r\n" where cursor[i] is
//     the highest sequence number it has already applied for shard i
//     (zero for a fresh replica). The source answers "OK <shards>\r\n"
//     and resumes the stream from cursor+1 per shard, or "ERR <msg>\r\n"
//     and closes.
//
//  2. Stream (binary, source→follower): a sequence of envelope frames,
//     each "u8 kind" followed by a CRC'd length-prefixed payload. Kind
//     'R' carries one record in the exact internal/logrec frame the WAL
//     writes to disk — the codec exists once, so wire and disk cannot
//     drift. Kind 'T' is a tip: the source's last shippable sequence per
//     shard (fsynced, with a WAL; published, without one), sent whenever a
//     follower has everything shippable, so followers can report
//     replication lag without a second channel.
//
//  3. Acks (text, follower→source): "ACK <applied0> <applied1> ...\r\n"
//     lines, sent periodically. The source only reads them to notice a
//     dead link: the authoritative cursor is the one the follower presents
//     when it reconnects.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gotle/internal/logrec"
)

// Envelope frame kinds.
const (
	// FrameRecord carries one logrec record frame.
	FrameRecord = 'R'
	// FrameTip carries the source's last shippable seq per shard.
	FrameTip = 'T'
)

// MaxShards bounds the shard count a tip frame (and a handshake) may
// declare; a wire value beyond it is corruption, not a configuration.
const MaxShards = 1 << 12

// Frame is one decoded envelope frame: Kind selects which field is set.
type Frame struct {
	Kind byte
	// Rec is the record (Kind == FrameRecord). Key and Val alias the
	// decode input.
	Rec logrec.Record
	// Tips holds the per-shard last shippable seqs (Kind == FrameTip).
	Tips []uint64
}

var (
	// ErrTorn marks an incomplete envelope frame: more bytes could
	// complete it (mid-stream read boundary).
	ErrTorn = logrec.ErrTorn
	// ErrCorrupt marks a structurally invalid or CRC-failing frame: the
	// stream is damaged and the follower must drop the connection and
	// re-handshake from its applied cursors.
	ErrCorrupt = logrec.ErrCorrupt
)

// AppendRecordFrame appends a record envelope frame to buf: the kind byte
// followed by the shared logrec disk frame, byte for byte.
func AppendRecordFrame(buf []byte, r logrec.Record) []byte {
	buf = append(buf, FrameRecord)
	return logrec.AppendRecord(buf, r)
}

// AppendTipFrame appends a tip envelope frame: kind byte, then the same
// "u32 payloadLen | u32 crc32c(payload)" header the record codec uses, with
// payload "u16 nshards | nshards × u64 seq".
func AppendTipFrame(buf []byte, tips []uint64) []byte {
	payloadLen := 2 + 8*len(tips)
	start := len(buf)
	buf = append(buf, make([]byte, 1+logrec.FrameHeader+payloadLen)...)
	p := buf[start:]
	p[0] = FrameTip
	binary.LittleEndian.PutUint32(p[1:5], uint32(payloadLen))
	pay := p[1+logrec.FrameHeader:]
	binary.LittleEndian.PutUint16(pay[0:2], uint16(len(tips)))
	for i, s := range tips {
		binary.LittleEndian.PutUint64(pay[2+8*i:], s)
	}
	binary.LittleEndian.PutUint32(p[5:9], logrec.Checksum(pay))
	return buf
}

// DecodeFrame decodes the first envelope frame in b, returning the frame
// and the number of bytes consumed. ErrTorn means b ends mid-frame;
// ErrCorrupt means the frame can never become valid (unknown kind, bad
// structure, bad CRC). Rec.Key/Rec.Val alias b. DecodeFrame is the single
// validation path: the streaming reader assembles exactly one frame's
// bytes and decodes them here, so the fuzzer's guarantees cover the live
// decoder too.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, ErrTorn
	}
	switch b[0] {
	case FrameRecord:
		rec, n, err := logrec.DecodeRecord(b[1:])
		if err != nil {
			return Frame{}, 0, err
		}
		return Frame{Kind: FrameRecord, Rec: rec}, 1 + n, nil
	case FrameTip:
		if len(b) < 1+logrec.FrameHeader {
			return Frame{}, 0, ErrTorn
		}
		payloadLen := int(binary.LittleEndian.Uint32(b[1:5]))
		if payloadLen < 2 || payloadLen > 2+8*MaxShards || (payloadLen-2)%8 != 0 {
			return Frame{}, 0, ErrCorrupt
		}
		if len(b) < 1+logrec.FrameHeader+payloadLen {
			return Frame{}, 0, ErrTorn
		}
		pay := b[1+logrec.FrameHeader : 1+logrec.FrameHeader+payloadLen]
		if logrec.Checksum(pay) != binary.LittleEndian.Uint32(b[5:9]) {
			return Frame{}, 0, ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint16(pay[0:2]))
		if payloadLen != 2+8*n {
			return Frame{}, 0, ErrCorrupt
		}
		tips := make([]uint64, n)
		for i := range tips {
			tips[i] = binary.LittleEndian.Uint64(pay[2+8*i:])
		}
		return Frame{Kind: FrameTip, Tips: tips}, 1 + logrec.FrameHeader + payloadLen, nil
	default:
		return Frame{}, 0, ErrCorrupt
	}
}

// readFrame reads exactly one envelope frame from br, staging its bytes in
// scratch (grown as needed, returned for reuse) and validating them with
// DecodeFrame. The length prefix is used only to size the read; every
// structural and integrity decision is DecodeFrame's. Frame contents alias
// scratch and are valid until the next call.
func readFrame(br *bufio.Reader, scratch []byte) (Frame, []byte, error) {
	scratch = scratch[:0]
	kind, err := br.ReadByte()
	if err != nil {
		return Frame{}, scratch, err
	}
	scratch = append(scratch, kind)
	var hdr [logrec.FrameHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Frame{}, scratch, fmt.Errorf("repl: short frame header: %w", err)
	}
	scratch = append(scratch, hdr[:]...)
	payloadLen := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if payloadLen > logrec.MaxPayload {
		// Refuse to allocate a hostile length; DecodeFrame would reject it
		// anyway, but only after the read.
		return Frame{}, scratch, ErrCorrupt
	}
	start := len(scratch)
	scratch = append(scratch, make([]byte, payloadLen)...)
	if _, err := io.ReadFull(br, scratch[start:]); err != nil {
		return Frame{}, scratch, fmt.Errorf("repl: short frame payload: %w", err)
	}
	fr, n, err := DecodeFrame(scratch)
	if err != nil {
		return Frame{}, scratch, err
	}
	if n != len(scratch) {
		return Frame{}, scratch, ErrCorrupt
	}
	return fr, scratch, nil
}

// newConnReader wraps a connection for frame and line reads. 64 KiB keeps
// a full MaxPayload record from forcing repeated short reads while
// bounding text lines (readLine treats a buffer-overflowing line as a
// protocol error).
func newConnReader(c io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(c, 64<<10)
}

// ---- text lines: handshake and acks ----

// Protocol opens a handshake line: v2 frames carry CRC-32C, v1 IEEE CRCs.
const Protocol = "REPL v2"

var errBadHandshake = errors.New("repl: bad handshake line")

// appendHandshake formats the follower's opening line.
func appendHandshake(buf []byte, cursors []uint64) []byte {
	buf = append(buf, Protocol+" "...)
	buf = strconv.AppendInt(buf, int64(len(cursors)), 10)
	for _, c := range cursors {
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, c, 10)
	}
	return append(buf, '\r', '\n')
}

// parseHandshake parses a handshake line without its CRLF.
func parseHandshake(line string) ([]uint64, error) {
	rest, ok := strings.CutPrefix(line, Protocol+" ")
	if !ok {
		return nil, errBadHandshake
	}
	f := strings.Fields(rest)
	if len(f) < 1 {
		return nil, errBadHandshake
	}
	n, err := strconv.Atoi(f[0])
	if err != nil || n < 1 || n > MaxShards || len(f) != 1+n {
		return nil, errBadHandshake
	}
	cursors := make([]uint64, n)
	for i := 0; i < n; i++ {
		c, err := strconv.ParseUint(f[1+i], 10, 64)
		if err != nil {
			return nil, errBadHandshake
		}
		cursors[i] = c
	}
	return cursors, nil
}

// appendAck formats a follower ack line over its applied cursors.
func appendAck(buf []byte, applied []uint64) []byte {
	buf = append(buf, "ACK"...)
	for _, a := range applied {
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, a, 10)
	}
	return append(buf, '\r', '\n')
}

// readLine reads one CRLF (or LF) terminated text line, bounded by the
// reader's buffer (an over-long line is a protocol error, not a resize).
func readLine(br *bufio.Reader) (string, error) {
	sl, err := br.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	sl = sl[:len(sl)-1]
	if n := len(sl); n > 0 && sl[n-1] == '\r' {
		sl = sl[:n-1]
	}
	return string(sl), nil
}
