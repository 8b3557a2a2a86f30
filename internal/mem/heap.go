// Package mem implements host memory for the simulated cluster, chiefly
// the paper's symmetric heap design (§III-B.2): a virtually contiguous
// address space assembled from scattered, fixed-size physical chunks that
// are allocated on demand and concatenated at the virtual level.
//
// Real OpenSHMEM implementations guarantee that a symmetric object lives
// at the same offset in every PE's symmetric heap. As in the paper, that
// property falls out of SPMD execution: every PE performs the same
// allocation sequence, and the allocator here is deterministic.
package mem

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation cannot fit even after
// growing the heap to its configured maximum.
var ErrOutOfMemory = errors.New("mem: symmetric heap exhausted")

// ErrBadFree is returned when Free is handed an address that is not the
// base of a live allocation.
var ErrBadFree = errors.New("mem: free of unallocated address")

// allocAlign is the alignment of every Alloc result. Eight bytes covers
// every type the typed put/get layer moves.
const allocAlign = 8

// block is a run of the virtual address space, either free or live.
type block struct {
	off  int64
	size int64
	free bool
}

// Heap is a symmetric heap: offsets handed out by Alloc are virtual
// addresses within a contiguous space whose backing storage is a list of
// scattered chunkSize slabs, grown on demand up to maxSize.
//
// Heap is not safe for concurrent use; in this repository all access is
// serialised by the simulation kernel.
type Heap struct {
	chunkSize int64 // construction geometry
	maxSize   int64 // snap: keep — construction geometry
	chunks    [][]byte
	blocks    []block // sorted by offset, covering [0, len(chunks)*chunkSize)
	live      int     // number of live allocations
	liveBytes int64

	// written is the high-water mark of bytes that may have been modified
	// since construction or the last Fork/Reset. Every mutating access
	// path (Write, and the writable aliases handed out by Segments)
	// raises it, so Fork can drop the previous run by clearing only
	// [0, written) instead of the whole grown extent.
	written int64

	// shared flags chunks that alias a HeapSnapshot's frozen pages (one
	// flag per chunk; nil until the heap first meets a snapshot). Shared
	// chunks are immutable: writers privatize them first (see
	// snapshot.go), and Fork detaches them instead of clearing.
	shared []bool
	// spare pools all-zero chunks displaced by Fork, recycled by
	// privatize and Fork's detach path. snap: keep — scratch pool.
	spare [][]byte
}

// NewHeap returns an empty heap that grows in chunkSize steps up to
// maxSize total.
func NewHeap(chunkSize, maxSize int) *Heap {
	if chunkSize <= 0 || maxSize < chunkSize {
		panic(fmt.Sprintf("mem: bad heap geometry chunk=%d max=%d", chunkSize, maxSize))
	}
	return &Heap{chunkSize: int64(chunkSize), maxSize: int64(maxSize)}
}

// Size returns the current virtual extent of the heap in bytes.
func (h *Heap) Size() int64 { return int64(len(h.chunks)) * h.chunkSize }

// Live returns the number of live allocations.
func (h *Heap) Live() int { return h.live }

// LiveBytes returns the total bytes currently allocated.
func (h *Heap) LiveBytes() int64 { return h.liveBytes }

// Chunks returns how many physical chunks back the heap — the paper's
// "scattered but virtually continuative" regions.
func (h *Heap) Chunks() int { return len(h.chunks) }

// grow appends one physical chunk and extends (or creates) the trailing
// free block. It fails if the heap is at its maximum.
func (h *Heap) grow() error {
	if h.Size()+h.chunkSize > h.maxSize {
		return ErrOutOfMemory
	}
	start := h.Size()
	h.chunks = append(h.chunks, make([]byte, h.chunkSize))
	if h.shared != nil {
		h.shared = append(h.shared, false)
	}
	if n := len(h.blocks); n > 0 && h.blocks[n-1].free {
		h.blocks[n-1].size += h.chunkSize
		return nil
	}
	h.blocks = append(h.blocks, block{off: start, size: h.chunkSize, free: true})
	return nil
}

// Alloc reserves size bytes and returns the virtual offset of the
// allocation. The result is always allocAlign-aligned. A zero or negative
// size is an error.
func (h *Heap) Alloc(size int) (int64, error) {
	return h.AllocAligned(size, allocAlign)
}

// AllocAligned reserves size bytes at an offset that is a multiple of
// align (shmem_align). align must be a power of two; alignments below
// the heap's base alignment are rounded up to it.
func (h *Heap) AllocAligned(size, align int) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: invalid allocation size %d", size)
	}
	if align <= 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	if align < allocAlign {
		align = allocAlign
	}
	a := int64(align)
	need := (int64(size) + allocAlign - 1) &^ (allocAlign - 1)
	for {
		// First fit over the free list, as the paper allocates
		// "in order from the start address of the symmetric heap".
		for i := range h.blocks {
			b := &h.blocks[i]
			if !b.free {
				continue
			}
			// Leading pad to reach alignment within this block.
			pad := (a - b.off%a) % a
			if b.size < pad+need {
				continue
			}
			if pad > 0 {
				// Split the pad off as a free block and retry on the
				// aligned remainder (now at index i+1).
				rest := block{off: b.off + pad, size: b.size - pad, free: true}
				b.size = pad
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[i+2:], h.blocks[i+1:])
				h.blocks[i+1] = rest
			}
			blk := &h.blocks[i]
			if pad > 0 {
				blk = &h.blocks[i+1]
			}
			if blk.size > need {
				rest := block{off: blk.off + need, size: blk.size - need, free: true}
				blk.size = need
				idx := i
				if pad > 0 {
					idx = i + 1
				}
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[idx+2:], h.blocks[idx+1:])
				h.blocks[idx+1] = rest
				blk = &h.blocks[idx]
			}
			blk.free = false
			h.live++
			h.liveBytes += need
			return blk.off, nil
		}
		if err := h.grow(); err != nil {
			return 0, err
		}
	}
}

// Realloc resizes the allocation at off to newSize, preserving the
// prefix contents, and returns the (possibly moved) base offset. It
// mirrors shmem_realloc: grow-in-place when the next block is free and
// large enough, otherwise allocate-copy-free.
func (h *Heap) Realloc(off int64, newSize int) (int64, error) {
	if newSize <= 0 {
		return 0, fmt.Errorf("mem: invalid reallocation size %d", newSize)
	}
	base, size, ok := h.BlockOf(off)
	if !ok || base != off {
		return 0, fmt.Errorf("%w: realloc of offset %d", ErrBadFree, off)
	}
	need := (int64(newSize) + allocAlign - 1) &^ (allocAlign - 1)
	if need <= size {
		// Shrink (or same): split the tail off as a free block.
		for i := range h.blocks {
			b := &h.blocks[i]
			if b.off != off {
				continue
			}
			if rest := b.size - need; rest > 0 {
				b.size = need
				h.liveBytes -= rest
				tail := block{off: b.off + need, size: rest, free: true}
				h.blocks = append(h.blocks, block{})
				copy(h.blocks[i+2:], h.blocks[i+1:])
				h.blocks[i+1] = tail
				// Coalesce the tail with a following free block.
				if i+2 < len(h.blocks) && h.blocks[i+2].free {
					h.blocks[i+1].size += h.blocks[i+2].size
					h.blocks = append(h.blocks[:i+2], h.blocks[i+3:]...)
				}
			}
			return off, nil
		}
	}
	// Grow in place when the next block is free and large enough.
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.off != off {
			continue
		}
		if i+1 < len(h.blocks) && h.blocks[i+1].free && b.size+h.blocks[i+1].size >= need {
			extra := need - b.size
			h.blocks[i+1].off += extra
			h.blocks[i+1].size -= extra
			b.size = need
			h.liveBytes += extra
			if h.blocks[i+1].size == 0 {
				h.blocks = append(h.blocks[:i+1], h.blocks[i+2:]...)
			}
			return off, nil
		}
		break
	}
	// Move: allocate, copy the prefix, free the original.
	newOff, err := h.Alloc(newSize)
	if err != nil {
		return 0, err
	}
	keep := size
	if int64(newSize) < keep {
		keep = int64(newSize)
	}
	buf := make([]byte, keep)
	h.Read(off, buf)
	h.Write(newOff, buf)
	if err := h.Free(off); err != nil {
		return 0, err
	}
	return newOff, nil
}

// Free releases the allocation whose base offset is off, coalescing with
// free neighbours.
func (h *Heap) Free(off int64) error {
	for i := range h.blocks {
		b := &h.blocks[i]
		if b.off != off || b.free {
			continue
		}
		b.free = true
		h.live--
		h.liveBytes -= b.size
		// Coalesce with the next block, then the previous.
		if i+1 < len(h.blocks) && h.blocks[i+1].free {
			b.size += h.blocks[i+1].size
			h.blocks = append(h.blocks[:i+1], h.blocks[i+2:]...)
		}
		if i > 0 && h.blocks[i-1].free {
			h.blocks[i-1].size += h.blocks[i].size
			h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
		}
		return nil
	}
	return fmt.Errorf("%w: offset %d", ErrBadFree, off)
}

// checkRange panics when [off, off+n) lies outside the grown heap; callers
// of Read/Write/Segments must stay within allocations they own, and an
// out-of-range access is a library bug, not user input.
func (h *Heap) checkRange(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > h.Size() {
		panic(fmt.Sprintf("mem: access [%d, %d) outside heap of size %d", off, off+int64(n), h.Size()))
	}
}

// Segments invokes fn over the physical byte runs backing the virtual
// range [off, off+n), in address order. It is the zero-copy access path:
// the slices alias heap storage, so the range is conservatively recorded
// as written (use Read for a non-marking copy).
func (h *Heap) Segments(off int64, n int, fn func(seg []byte)) {
	h.ensurePrivate(off, n)
	h.markWritten(off, n)
	h.segments(off, n, fn)
}

func (h *Heap) markWritten(off int64, n int) {
	if end := off + int64(n); end > h.written {
		h.written = end
	}
}

func (h *Heap) segments(off int64, n int, fn func(seg []byte)) {
	h.checkRange(off, n)
	for n > 0 {
		ci := off / h.chunkSize
		co := off % h.chunkSize
		run := h.chunkSize - co
		if int64(n) < run {
			run = int64(n)
		}
		fn(h.chunks[ci][co : co+run])
		off += run
		n -= int(run)
	}
}

// Write copies data into the heap at virtual offset off.
func (h *Heap) Write(off int64, data []byte) {
	h.ensurePrivate(off, len(data))
	h.markWritten(off, len(data))
	h.segments(off, len(data), func(seg []byte) {
		copy(seg, data[:len(seg)])
		data = data[len(seg):]
	})
}

// Read copies len(buf) bytes from virtual offset off into buf.
func (h *Heap) Read(off int64, buf []byte) {
	h.segments(off, len(buf), func(seg []byte) {
		copy(buf[:len(seg)], seg)
		buf = buf[len(seg):]
	})
}

// Reset drops every allocation and rezeroes the written extent, returning
// the heap to a state indistinguishable from freshly constructed while
// keeping the physical chunks: Fork onto the empty snapshot. Because
// grow costs nothing in virtual time and first-fit over a single leading
// free block assigns the same offsets a demand-grown fresh heap would,
// an allocation sequence replayed after Reset yields byte-identical
// placement — the property recycled simulation worlds rely on.
func (h *Heap) Reset() { h.Fork(&HeapSnapshot{chunkSize: h.chunkSize}) }

// BlockOf returns the base offset and size of the live allocation
// containing off, for bounds validation by the runtime.
func (h *Heap) BlockOf(off int64) (base, size int64, ok bool) {
	for i := range h.blocks {
		b := &h.blocks[i]
		if !b.free && off >= b.off && off < b.off+b.size {
			return b.off, b.size, true
		}
	}
	return 0, 0, false
}
