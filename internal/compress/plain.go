// Package compress implements the plain delta-varint coding of sorted
// vertex lists that the wire set codec uses for RRR sets crossing ranks:
//
//	varint(count) | varint(first) | varint(delta-1)...
//
// Successive members are strictly increasing, so every delta is at least
// one and the -1 bias keeps single-step runs in one byte. Decoding is a
// single forward scan with no tables.
package compress

import (
	"fmt"
	"math"
)

// AppendPlain appends the delta-varint encoding of sorted to dst and
// returns the extended slice. sorted must be strictly increasing and
// non-negative; AppendPlain does not validate (sets are sorted and
// deduplicated before they are encoded).
func AppendPlain(dst []byte, sorted []int32) []byte {
	dst = appendUvarint(dst, uint64(len(sorted)))
	prev := int64(-1)
	for _, v := range sorted {
		dst = appendUvarint(dst, uint64(int64(v)-prev-1))
		prev = int64(v)
	}
	return dst
}

// DecodePlain reverses AppendPlain, appending the vertices to dst. The
// coding makes them strictly ascending from zero; a delta that would carry
// one past math.MaxInt32, which no int32 list encodes, is an error. A
// count is never trusted to size dst: the bytes may be a peer's, and a
// count the payload cannot hold fails as a truncation. data must be one
// set exactly: bytes after its last member are an error.
func DecodePlain(data []byte, dst []int32) ([]int32, error) {
	count, n := readUvarint(data)
	if n <= 0 {
		return dst, fmt.Errorf("compress: truncated plain count")
	}
	data = data[n:]
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		delta, n := readUvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("compress: truncated plain delta %d", i)
		}
		if delta >= uint64(math.MaxInt32-prev) {
			return dst, fmt.Errorf("compress: plain member %d past the int32 range", i)
		}
		data = data[n:]
		prev += int64(delta) + 1
		dst = append(dst, int32(prev))
	}
	if len(data) != 0 {
		return dst, fmt.Errorf("compress: %d bytes after the plain set's last member", len(data))
	}
	return dst, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func readUvarint(data []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range data {
		if b < 0x80 {
			if i > 9 || (i == 9 && b > 1) {
				return 0, -1 // overflow
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
