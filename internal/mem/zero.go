package mem

import (
	"bytes"
	"encoding/binary"
)

// The zero source. Most payloads the model moves were never written by
// anyone — a benchmark's put source, a symmetric range a get reads back
// before anything landed there — and a page nobody wrote has no storage
// and reads as zeros. Such a payload travels as a slice of one shared,
// read-only zero array instead of a zeroed copy: every layer that moves
// bytes recognises it by its address (IsZeroSource) and passes it on,
// clears, or skips, rather than copying. The array is never written, so
// it stays in the binary's zero-initialised data segment and costs the
// host no heap and no resident memory.
//
// Content is scanned only where a host buffer enters the model as a put
// source (ZeroOr), and that scan stops at the first non-zero block, so a
// random payload pays one comparison.

// zeroSourceSize is the longest payload the zero source serves; Zeros
// falls back to a fresh buffer beyond it. A5's largest broadcast is
// 8 MiB.
const zeroSourceSize = 16 << 20

var zeroSrc [zeroSourceSize]byte

// Zeros returns n zero bytes. Up to 16 MiB they are a slice of
// the shared zero source, which must never be written: hand it only to
// paths that read a payload (puts, DMA and window sources, heap writes).
func Zeros(n int) []byte {
	if n > zeroSourceSize {
		return make([]byte, n)
	}
	return zeroSrc[:n:zeroSourceSize]
}

// IsZeroSource reports whether b is a non-empty slice of the shared zero
// source, at any offset — by address, without reading a byte.
//
//ntblint:allocfree
func IsZeroSource(b []byte) bool {
	c := cap(b)
	return c > 0 && &b[:c][c-1] == &zeroSrc[zeroSourceSize-1]
}

// ZeroOr returns the zero source in place of b when every byte of b is
// zero, and b otherwise. It is the one content scan: callers apply it to
// a host buffer entering the model as a put source. A buffer whose first
// byte is set — almost every random payload — costs one comparison, and
// the scan otherwise stops at the first block that differs.
//
//ntblint:allocfree
func ZeroOr(b []byte) []byte {
	if len(b) == 0 || b[0] != 0 || len(b) > zeroSourceSize || IsZeroSource(b) || !allZero(b) {
		return b
	}
	return zeroSrc[:len(b):zeroSourceSize]
}

// allZero reports whether every byte of b is zero, by comparing it with
// the zero source: the comparison runs at memequal speed and returns at
// the first block that differs.
//
//ntblint:allocfree
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), zeroSourceSize)
		if !bytes.Equal(b[:n], zeroSrc[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// ZeroSourceIntact reports whether the shared zero source still reads as
// all zeros, for test suites to check after exercising every path that
// carries it. It reads word by word: comparing the source with itself
// would prove nothing.
func ZeroSourceIntact() bool {
	for b := zeroSrc[:]; len(b) > 0; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	return true
}
