package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// Op kinds of the request stream. Sentinel ops hit the connection's own
// keys and carry a version, so read-your-acked-writes can be checked.
const (
	kGet = iota
	kSet
	kDel
	kSentSet
	kSentGet
	kVersion
)

// An op packs kind (3 bits), value-size index (2 bits) and key index.
type op uint32

func mkOp(kind, size, key int) op { return op(kind | size<<3 | key<<5) }
func (o op) kind() int            { return int(o & 7) }
func (o op) size() int            { return int(o >> 3 & 3) }
func (o op) key() int             { return int(o >> 5) }

// stream is everything the generator sends, built from the seed before the
// run: key table, request bytes per key, value bytes, and one op sequence per
// connection. During a run the generator only copies from it.
type stream struct {
	w       *workload
	keys    [][]byte   // "key:00042"
	getReq  [][]byte   // "get key:00042\r\n"
	delReq  [][]byte   // "delete key:00042\r\n"
	setHdr  [][][]byte // per size: "set key:00042 0 0 64\r\n"
	sentKey [genConns][sentinelKeys][]byte
	pattern []byte
	ops     [genConns][]op
	hash    uint64
}

var versionReq = []byte("version\r\n")

func newStream(w *workload, seed int64) *stream {
	s := &stream{w: w, pattern: make([]byte, valPatternLen)}
	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range s.pattern {
		s.pattern[i] = 'a' + byte(prng.Intn(26))
	}
	s.keys = make([][]byte, w.keys)
	s.getReq = make([][]byte, w.keys)
	s.delReq = make([][]byte, w.keys)
	s.setHdr = make([][][]byte, len(w.valSizes))
	for i := range s.setHdr {
		s.setHdr[i] = make([][]byte, w.keys)
	}
	for k := 0; k < w.keys; k++ {
		key := fmt.Sprintf("key:%05d", k)
		s.keys[k] = []byte(key)
		s.getReq[k] = []byte("get " + key + "\r\n")
		s.delReq[k] = []byte("delete " + key + "\r\n")
		for i, n := range w.valSizes {
			s.setHdr[i][k] = []byte(fmt.Sprintf("set %s 0 0 %d\r\n", key, n))
		}
	}
	for c := 0; c < genConns; c++ {
		for k := 0; k < sentinelKeys; k++ {
			s.sentKey[c][k] = []byte(fmt.Sprintf("sen:%d:%02d", c, k))
		}
	}
	h := fnvOffset
	for c := 0; c < genConns; c++ {
		rng := rand.New(rand.NewSource(seed*genConns + int64(c)))
		var zipf *rand.Zipf
		if w.zipf > 1 {
			zipf = rand.NewZipf(rng, w.zipf, 1, uint64(w.keys-1))
		}
		ops := make([]op, streamOps)
		for i := range ops {
			switch {
			case i%sentinelEvery == sentinelEvery-1:
				kind := kSentSet
				if rng.Intn(2) == 0 {
					kind = kSentGet
				}
				ops[i] = mkOp(kind, 0, rng.Intn(sentinelKeys))
			case i%versionEvery == versionEvery-1:
				ops[i] = mkOp(kVersion, 0, 0)
			default:
				key := 0
				if zipf != nil {
					key = int(zipf.Uint64())
				} else {
					key = rng.Intn(w.keys)
				}
				kind, size := kGet, 0
				switch roll := rng.Intn(100); {
				case roll < w.setPct:
					kind, size = kSet, rng.Intn(len(w.valSizes))
				case roll < w.setPct+w.delPct:
					kind = kDel
				}
				ops[i] = mkOp(kind, size, key)
			}
			h = fnvMix(h, uint64(ops[i]))
		}
		s.ops[c] = ops
	}
	for _, b := range s.pattern {
		h = fnvMix(h, uint64(b))
	}
	s.hash = h
	return s
}

// value is the bytes stored under key k at size n: a window into the shared
// pattern whose offset depends on the key, so a value returned for the wrong
// key or torn between two sizes does not compare equal.
func (s *stream) value(k, n int) []byte {
	off := k % 251
	return s.pattern[off : off+n]
}

// sizeIndex returns which configured value size n is, or -1.
func (s *stream) sizeIndex(n int) int {
	for i, v := range s.w.valSizes {
		if v == n {
			return i
		}
	}
	return -1
}

const sentinelValLen = 64

// appendSentinelValue appends sentinel key k's value at version ver: 16 hex
// digits of version, then pattern bytes.
func (s *stream) appendSentinelValue(dst []byte, k int, ver uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[ver>>uint(shift)&15])
	}
	return append(dst, s.value(k, sentinelValLen)[16:]...)
}

// sentinelVersion decodes a sentinel value, reporting false if it is not one
// appendSentinelValue could have produced for key k.
func (s *stream) sentinelVersion(val []byte, k int) (uint64, bool) {
	if len(val) != sentinelValLen || !bytes.Equal(val[16:], s.value(k, sentinelValLen)[16:]) {
		return 0, false
	}
	var ver uint64
	for _, c := range val[:16] {
		switch {
		case c >= '0' && c <= '9':
			ver = ver<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			ver = ver<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return ver, true
}
