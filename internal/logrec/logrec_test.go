package logrec

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkFrameCodec frames and decodes one record whose payload is 95
// bytes (a 12-byte key and a 64-byte value, serve-durable's seed log) or
// 2 KiB (serve-write's large value): the checksum is most of either.
func BenchmarkFrameCodec(b *testing.B) {
	for _, payload := range []int{95, 2048} {
		key := []byte("key:00012345")
		r := Record{Seq: 1, Op: OpSet, Key: key, Val: bytes.Repeat([]byte("v"), payload-PayloadMin-len(key))}
		frame := AppendRecord(nil, r)
		buf := make([]byte, 0, len(frame))
		name := fmt.Sprintf("%dB", payload)
		b.Run("append/"+name, func(b *testing.B) {
			b.SetBytes(int64(payload))
			for i := 0; i < b.N; i++ {
				buf = AppendRecord(buf[:0], r)
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.SetBytes(int64(payload))
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeRecord(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
