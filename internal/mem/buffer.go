package mem

import (
	"fmt"
	"math/bits"
)

// Buffer is a flat byte range that holds storage only as far as a write
// has reached: one block from the lender, borrowed on the first write
// and replaced by a larger one in power-of-two steps (from 4 KiB, capped
// at the range's size) as writes reach further. A lent block larger than
// a step needs is used whole, so a buffer rebuilt on a recycled world
// takes the block its predecessor gave back instead of stepping up from
// 4 KiB again. An outgrown block is cleared and returned at once: its
// owner guarantees that no alias of it outlives the write that outgrows
// it. Every byte past the furthest write reads as zero.
//
// It is the memory a receiver registers behind an NTB inbound window:
// its Land and Range are the window's landing and reading (ntb.Target).
type Buffer struct {
	b    []byte // the block, sliced to the end of the furthest write; every byte past it is zero
	size int
}

// NewBuffers makes n empty buffers of size bytes each, in one slab.
func NewBuffers(n, size int) []Buffer {
	bufs := make([]Buffer, n)
	for i := range bufs {
		bufs[i].size = size
	}
	return bufs
}

// check panics unless [off, off+n) lies inside the buffer.
func (b *Buffer) check(off, n int) {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("mem: access [%d,%d) of a %d-byte buffer", off, off+n, b.size))
	}
}

// extend lengthens the written run to end (≤ size), borrowing a larger block
// when the current one falls short, and returns the run.
func (b *Buffer) extend(end int) []byte {
	if end > cap(b.b) {
		block := Borrow(min(b.size, 1<<bits.Len(uint(end-1))), b.size)
		copy(block, b.b)
		n := len(b.b)
		b.ReturnStorage()
		b.b = block[:n]
	}
	if end > len(b.b) {
		b.b = b.b[:end]
	}
	return b.b
}

// Land writes hdr at off and data right behind it. Data from the zero
// source lands as zeros: it clears only bytes an earlier write reached,
// and where it covers the end of the written run the run shrinks, so a
// zero payload, bare or behind a header, borrows nothing.
func (b *Buffer) Land(off int, hdr, data []byte) {
	b.check(off, len(hdr)+len(data))
	if len(hdr) > 0 {
		copy(b.extend(off + len(hdr))[off:], hdr)
		off += len(hdr)
	}
	end := off + len(data)
	switch {
	case len(data) == 0:
	case !IsZeroSource(data):
		copy(b.extend(end)[off:], data)
	case off < len(b.b) && end >= len(b.b):
		clear(b.b[off:])
		b.b = b.b[:off]
	case off < len(b.b):
		clear(b.b[off:end])
	}
}

// Range returns bytes [off, off+n): the zero source when no write
// reached past off, else an alias of the storage, which a range reaching
// past the written run extends over zeros.
func (b *Buffer) Range(off, n int) []byte {
	b.check(off, n)
	if off >= len(b.b) {
		return Zeros(n)
	}
	return b.extend(off + n)[off:][:n]
}

// Resident reports the bytes of storage the buffer holds.
func (b *Buffer) Resident() int { return cap(b.b) }

// ReturnStorage clears what writes reached and gives the block back to
// the lender, leaving the buffer empty: it reads as zeros again.
func (b *Buffer) ReturnStorage() {
	if cap(b.b) > 0 {
		clear(b.b)
		Return(b.b)
		b.b = nil
	}
}
